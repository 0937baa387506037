#include "api/scenario_text.hpp"

#include <cstdio>
#include <cstdlib>

namespace drrg::api {

namespace {

// Splits "a,b,c" and hands each piece to `item_fn`; any piece it rejects
// rejects the whole schedule.  All the event grammars share this comma
// layer and differ only per item.
template <typename Fn>
bool for_each_item(std::string_view text, Fn&& item_fn) {
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t comma = std::min(text.find(',', pos), text.size());
    if (!item_fn(text.substr(pos, comma - pos))) return false;
    if (comma == text.size()) break;
    pos = comma + 1;
  }
  return true;
}

bool parse_u32(std::string_view text, std::uint32_t* out) {
  if (text.empty()) return false;
  const std::string str{text};
  char* end = nullptr;
  const unsigned long v = std::strtoul(str.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  *out = static_cast<std::uint32_t>(v);
  return true;
}

bool parse_frac(std::string_view text, double* out) {
  if (text.empty()) return false;
  const std::string str{text};
  char* end = nullptr;
  const double v = std::strtod(str.c_str(), &end);
  if (end == nullptr || *end != '\0') return false;
  if (v <= 0.0 || v >= 1.0) return false;
  *out = v;
  return true;
}

// "A-B" -> two u32s with A <= B.
bool parse_range(std::string_view text, std::uint32_t* lo, std::uint32_t* hi) {
  const std::size_t dash = text.find('-');
  if (dash == std::string_view::npos) return false;
  if (!parse_u32(text.substr(0, dash), lo)) return false;
  if (!parse_u32(text.substr(dash + 1), hi)) return false;
  return *lo <= *hi;
}

// "R:F[,R:F...]" -> events with a round and a (0, 1) fraction: the
// churn and join grammar.
template <typename Event>
std::optional<std::vector<Event>> parse_round_fractions(std::string_view text) {
  std::vector<Event> events;
  if (text.empty()) return events;
  const bool ok = for_each_item(text, [&](std::string_view item) {
    const std::size_t colon = item.find(':');
    if (colon == std::string_view::npos) return false;
    Event e{};
    if (!parse_u32(item.substr(0, colon), &e.round)) return false;
    if (!parse_frac(item.substr(colon + 1), &e.fraction)) return false;
    events.push_back(e);
    return true;
  });
  if (!ok) return std::nullopt;
  return events;
}

template <typename Event>
std::string format_round_fractions(const std::vector<Event>& events) {
  std::string out;
  char buf[64];
  for (const Event& e : events) {
    if (!out.empty()) out += ',';
    std::snprintf(buf, sizeof buf, "%u:%g", e.round, e.fraction);
    out += buf;
  }
  return out;
}

}  // namespace

std::optional<std::vector<sim::CrashEvent>> parse_churn(std::string_view text) {
  return parse_round_fractions<sim::CrashEvent>(text);
}

std::string format_churn(const std::vector<sim::CrashEvent>& churn) {
  return format_round_fractions(churn);
}

std::optional<std::vector<sim::JoinEvent>> parse_joins(std::string_view text) {
  return parse_round_fractions<sim::JoinEvent>(text);
}

std::string format_joins(const std::vector<sim::JoinEvent>& joins) {
  return format_round_fractions(joins);
}

std::optional<std::vector<sim::BlockCrashEvent>> parse_blocks(std::string_view text) {
  std::vector<sim::BlockCrashEvent> events;
  if (text.empty()) return events;
  const bool ok = for_each_item(text, [&](std::string_view item) {
    // R:LO-HI[:STRIDE/WIDTH]
    const std::size_t c1 = item.find(':');
    if (c1 == std::string_view::npos) return false;
    sim::BlockCrashEvent b{};
    if (!parse_u32(item.substr(0, c1), &b.round)) return false;
    std::string_view rest = item.substr(c1 + 1);
    const std::size_t c2 = rest.find(':');
    const std::string_view range = rest.substr(0, std::min(c2, rest.size()));
    if (!parse_range(range, &b.lo, &b.hi) || b.lo == b.hi) return false;
    if (c2 != std::string_view::npos) {
      const std::string_view grid = rest.substr(c2 + 1);
      const std::size_t slash = grid.find('/');
      if (slash == std::string_view::npos) return false;
      if (!parse_u32(grid.substr(0, slash), &b.stride)) return false;
      if (!parse_u32(grid.substr(slash + 1), &b.width)) return false;
      if (b.stride == 0 || b.width == 0 || b.width > b.stride) return false;
    }
    events.push_back(b);
    return true;
  });
  if (!ok) return std::nullopt;
  return events;
}

std::string format_blocks(const std::vector<sim::BlockCrashEvent>& blocks) {
  std::string out;
  char buf[96];
  for (const sim::BlockCrashEvent& b : blocks) {
    if (!out.empty()) out += ',';
    if (b.stride != 0)
      std::snprintf(buf, sizeof buf, "%u:%u-%u:%u/%u", b.round, b.lo, b.hi, b.stride,
                    b.width);
    else
      std::snprintf(buf, sizeof buf, "%u:%u-%u", b.round, b.lo, b.hi);
    out += buf;
  }
  return out;
}

std::optional<std::vector<sim::PartitionEvent>> parse_partitions(
    std::string_view text) {
  std::vector<sim::PartitionEvent> events;
  if (text.empty()) return events;
  const bool ok = for_each_item(text, [&](std::string_view item) {
    // R:B[:H]
    const std::size_t c1 = item.find(':');
    if (c1 == std::string_view::npos) return false;
    sim::PartitionEvent p{};
    if (!parse_u32(item.substr(0, c1), &p.round)) return false;
    std::string_view rest = item.substr(c1 + 1);
    const std::size_t c2 = rest.find(':');
    if (!parse_u32(rest.substr(0, std::min(c2, rest.size())), &p.boundary))
      return false;
    if (c2 != std::string_view::npos) {
      if (!parse_u32(rest.substr(c2 + 1), &p.heal_round)) return false;
      if (p.heal_round <= p.round) return false;
    }
    events.push_back(p);
    return true;
  });
  if (!ok) return std::nullopt;
  return events;
}

std::string format_partitions(const std::vector<sim::PartitionEvent>& partitions) {
  std::string out;
  char buf[96];
  for (const sim::PartitionEvent& p : partitions) {
    if (!out.empty()) out += ',';
    if (p.heal_round != sim::kNeverRound)
      std::snprintf(buf, sizeof buf, "%u:%u:%u", p.round, p.boundary, p.heal_round);
    else
      std::snprintf(buf, sizeof buf, "%u:%u", p.round, p.boundary);
    out += buf;
  }
  return out;
}

std::optional<sim::LatencyModel> parse_latency(std::string_view text) {
  sim::LatencyModel latency{};
  if (text.empty() || text == "zero") return latency;
  const std::size_t colon = text.find(':');
  if (colon == std::string_view::npos) return std::nullopt;
  const std::string_view kind = text.substr(0, colon);
  const std::string_view rest = text.substr(colon + 1);
  if (kind == "fixed") {
    if (!parse_u32(rest, &latency.min_delay)) return std::nullopt;
    latency.max_delay = latency.min_delay;
    latency.kind = latency.min_delay == 0 ? sim::LatencyModel::Kind::kZero
                                          : sim::LatencyModel::Kind::kFixed;
    return latency;
  }
  if (kind == "uniform") {
    if (!parse_range(rest, &latency.min_delay, &latency.max_delay)) return std::nullopt;
    latency.kind = sim::LatencyModel::Kind::kUniform;
    return latency;
  }
  if (kind == "tail") {
    const std::size_t c2 = rest.find(':');
    if (c2 == std::string_view::npos) return std::nullopt;
    if (!parse_range(rest.substr(0, c2), &latency.min_delay, &latency.max_delay))
      return std::nullopt;
    const std::string prob_str{rest.substr(c2 + 1)};
    char* end = nullptr;
    const double p = std::strtod(prob_str.c_str(), &end);
    if (end == nullptr || *end != '\0' || prob_str.empty()) return std::nullopt;
    if (!(p >= 0.0) || p > 1.0) return std::nullopt;
    latency.tail_prob = p;
    latency.kind = sim::LatencyModel::Kind::kHeavyTail;
    return latency;
  }
  return std::nullopt;
}

std::string format_latency(const sim::LatencyModel& latency) {
  if (latency.zero()) return "";
  char buf[96];
  switch (latency.kind) {
    case sim::LatencyModel::Kind::kZero:
      return "";
    case sim::LatencyModel::Kind::kFixed:
      std::snprintf(buf, sizeof buf, "fixed:%u", latency.min_delay);
      break;
    case sim::LatencyModel::Kind::kUniform:
      std::snprintf(buf, sizeof buf, "uniform:%u-%u", latency.min_delay,
                    latency.max_delay);
      break;
    case sim::LatencyModel::Kind::kHeavyTail:
      std::snprintf(buf, sizeof buf, "tail:%u-%u:%g", latency.min_delay,
                    latency.max_delay, latency.tail_prob);
      break;
  }
  return buf;
}

namespace {

// Chaos probabilities allow 1.0 ("corrupt:1" is the always-reject soak),
// unlike the (0, 1) crash fractions.
bool parse_prob(std::string_view text, double* out) {
  if (text.empty()) return false;
  const std::string str{text};
  char* end = nullptr;
  const double v = std::strtod(str.c_str(), &end);
  if (end == nullptr || *end != '\0') return false;
  if (v <= 0.0 || v > 1.0) return false;
  *out = v;
  return true;
}

bool parse_i64(std::string_view text, std::int64_t* out) {
  if (text.empty()) return false;
  const std::string str{text};
  char* end = nullptr;
  const long long v = std::strtoll(str.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || v < 0) return false;
  *out = v;
  return true;
}

}  // namespace

std::optional<net::ChaosSpec> parse_chaos(std::string_view text) {
  net::ChaosSpec spec;
  if (text.empty() || text == "none") return spec;
  const bool ok = for_each_item(text, [&](std::string_view item) {
    const std::size_t colon = item.find(':');
    if (colon == std::string_view::npos || colon + 1 >= item.size()) return false;
    const std::string_view key = item.substr(0, colon);
    const std::string_view rest = item.substr(colon + 1);
    if (key == "drop") return parse_prob(rest, &spec.drop);
    if (key == "dup") return parse_prob(rest, &spec.dup);
    if (key == "corrupt") return parse_prob(rest, &spec.corrupt);
    if (key == "reorder") {
      // P[/SPAN]
      const std::size_t slash = rest.find('/');
      if (!parse_prob(rest.substr(0, std::min(slash, rest.size())), &spec.reorder))
        return false;
      if (slash != std::string_view::npos) {
        if (!parse_u32(rest.substr(slash + 1), &spec.reorder_span)) return false;
        if (spec.reorder_span == 0) return false;
      }
      return true;
    }
    if (key == "delay") {
      const auto latency = parse_latency(rest);  // ms units on this layer
      if (!latency || latency->zero()) return false;
      spec.delay = *latency;
      return true;
    }
    if (key == "cut") {
      // B@S[-H]
      const std::size_t at = rest.find('@');
      if (at == std::string_view::npos) return false;
      net::ChaosCut cut;
      if (!parse_u32(rest.substr(0, at), &cut.boundary)) return false;
      const std::string_view marks = rest.substr(at + 1);
      const std::size_t dash = marks.find('-');
      if (!parse_i64(marks.substr(0, std::min(dash, marks.size())), &cut.start_ms))
        return false;
      if (dash != std::string_view::npos) {
        if (!parse_i64(marks.substr(dash + 1), &cut.heal_ms)) return false;
        if (cut.heal_ms <= cut.start_ms) return false;
      }
      spec.cuts.push_back(cut);
      return true;
    }
    return false;
  });
  if (!ok) return std::nullopt;
  return spec;
}

std::string format_chaos(const net::ChaosSpec& spec) {
  std::string out;
  char buf[96];
  const auto add = [&](const char* fmt, auto... args) {
    if (!out.empty()) out += ',';
    std::snprintf(buf, sizeof buf, fmt, args...);
    out += buf;
  };
  if (spec.drop > 0.0) add("drop:%g", spec.drop);
  if (spec.dup > 0.0) add("dup:%g", spec.dup);
  if (spec.corrupt > 0.0) add("corrupt:%g", spec.corrupt);
  if (spec.reorder > 0.0) add("reorder:%g/%u", spec.reorder, spec.reorder_span);
  if (!spec.delay.zero()) {
    if (!out.empty()) out += ',';
    out += "delay:" + format_latency(spec.delay);
  }
  for (const net::ChaosCut& cut : spec.cuts) {
    if (cut.heal_ms != net::ChaosCut::kNoHeal)
      add("cut:%u@%lld-%lld", cut.boundary, static_cast<long long>(cut.start_ms),
          static_cast<long long>(cut.heal_ms));
    else
      add("cut:%u@%lld", cut.boundary, static_cast<long long>(cut.start_ms));
  }
  return out;
}

std::string topology_names() {
  return "complete chord-ring random-regular grid torus";
}

}  // namespace drrg::api
