#include "reconf/notification.hpp"

namespace ssr::reconf {

bool Notification::lex_less(const Notification& a, const Notification& b) {
  if (a.phase != b.phase) return a.phase < b.phase;
  if (a.has_set != b.has_set) return !a.has_set;  // ⊥ below any set
  return a.set < b.set;
}

void Notification::encode(wire::Writer& w) const {
  w.u8(phase);
  w.boolean(has_set);
  if (has_set) w.id_set(set);
}

Notification Notification::decode(wire::Reader& r) {
  Notification n;
  n.phase = r.u8();
  if (n.phase > 2) n.phase = 0;  // corrupted phase → default-shaped
  n.has_set = r.boolean();
  if (n.has_set) n.set = r.id_set();
  return n;
}

std::string Notification::to_string() const {
  if (is_default()) return "<0,⊥>";
  std::string out = "<";  // append, not `"<" + ...`: see CounterPair
  out += std::to_string(static_cast<int>(phase));
  out += ',';
  out += has_set ? set.to_string() : "⊥";
  out += '>';
  return out;
}

}  // namespace ssr::reconf

