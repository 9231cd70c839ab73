#include "vs/view.hpp"

namespace ssr::vs {

void View::encode(wire::Writer& w) const {
  id.encode(w);
  w.id_set(set);
}

std::optional<View> View::decode(wire::Reader& r) {
  auto id = Counter::decode(r);
  if (!id) return std::nullopt;
  View v;
  v.id = *id;
  v.set = r.id_set();
  return v;
}

std::uint64_t View::digest() const {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t x) { h = (h ^ x) * 1099511628211ULL; };
  mix(id.lbl.creator);
  mix(id.lbl.sting);
  mix(id.lbl.antistings.size());
  for (std::uint32_t a : id.lbl.antistings) mix(a);
  mix(id.seqn);
  mix(id.wid);
  for (NodeId m : set) mix(m);
  return h;
}

std::string View::to_string() const {
  if (is_null()) return "view(⊥)";
  return "view(" + id.to_string() + "," + set.to_string() + ")";
}

}  // namespace ssr::vs
