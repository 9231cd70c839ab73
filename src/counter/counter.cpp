#include "counter/counter.hpp"

namespace ssr::counter {

bool Counter::ct_less(const Counter& a, const Counter& b) {
  if (!(a.lbl == b.lbl)) return Label::total_less(a.lbl, b.lbl);
  if (a.seqn != b.seqn) return a.seqn < b.seqn;
  return a.wid < b.wid;
}

void Counter::encode(wire::Writer& w) const {
  lbl.encode(w);
  w.u64(seqn);
  w.node_id(wid);
}

std::optional<Counter> Counter::decode(wire::Reader& r) {
  auto lbl = Label::decode(r);
  if (!lbl) return std::nullopt;
  Counter c;
  c.lbl = *lbl;
  c.seqn = r.u64();
  c.wid = r.node_id();
  return c;
}

std::string Counter::to_string() const {
  return lbl.to_string() + ":" + std::to_string(seqn) + "@" +
         std::to_string(wid);
}

void CounterPair::encode(wire::Writer& w) const {
  w.boolean(mct.has_value());
  if (mct) mct->encode(w);
  w.boolean(cct.has_value());
  if (cct) cct->encode(w);
}

CounterPair CounterPair::decode(wire::Reader& r) {
  CounterPair p;
  if (r.boolean()) p.mct = Counter::decode(r);
  if (r.boolean()) p.cct = Counter::decode(r);
  return p;
}

std::string CounterPair::to_string() const {
  // Built with append: GCC 12 flags `"lit" + std::string&&` with a false
  // -Wrestrict in Release builds.
  std::string out = "<";
  out += mct ? mct->to_string() : "⊥";
  out += ',';
  out += cct ? cct->to_string() : "⊥";
  out += '>';
  return out;
}

}  // namespace ssr::counter
