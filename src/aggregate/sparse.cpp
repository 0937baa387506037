#include "aggregate/sparse.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <utility>
#include <vector>

#include "aggregate/pipeline.hpp"
#include "aggregate/routing.hpp"
#include "rootgossip/ordered_key.hpp"
#include "sim/call_faults.hpp"
#include "sim/engine.hpp"
#include "support/mathutil.hpp"

namespace drrg {

Graph overlay_graph(const ChordOverlay& chord) {
  // Every overlay link is a finger: the successor is finger 0.  Finger k
  // is the first node at clockwise distance >= 2^k, so a finger at
  // distance d is finger k' for every k' <= floor(log2 d): the next
  // distinct finger is k' = bit_width(d), and v holds w iff w is v's
  // finger floor(log2 d(v, w)), one table load.  A link both ends hold is
  // kept from its lower-labelled end only.
  const std::uint32_t n = chord.size();
  const std::uint32_t m = chord.ring_bits();
  const std::uint64_t ring_mask = chord.ring_size() - 1;
  auto dist = [&chord, ring_mask](NodeId v, NodeId w) {
    return (chord.id_of(w) - chord.id_of(v)) & ring_mask;
  };
  auto holds = [&](NodeId v, NodeId w) {
    return chord.finger(v, static_cast<std::uint32_t>(std::bit_width(dist(v, w))) - 1) == w;
  };
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(static_cast<std::size_t>(n) * m);
  std::vector<std::size_t> hi_start(static_cast<std::size_t>(n) + 1, 0);
  std::vector<std::size_t> lo_next(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    const NodeId* row = chord.finger_row(v);
    std::uint32_t k = 0;
    while (k < m && row[k] != v) {  // self-fingers end the row
      const NodeId w = row[k];
      k = static_cast<std::uint32_t>(std::bit_width(dist(v, w)));
      if (w < v && holds(w, v)) continue;
      const NodeId lo = std::min(v, w), hi = std::max(v, w);
      edges.emplace_back(lo, hi);
      ++hi_start[hi];
      ++lo_next[lo];
    }
  }
  // Two stable counting passes, by the higher end into `lows` and back by
  // the lower end, sort the links into (lower, higher) order.  That order
  // hands Graph::from_edges every adjacency slice already sorted.
  std::size_t hi_end = 0, lo_begin = 0;
  for (NodeId v = 0; v < n; ++v) {
    hi_end += hi_start[v];
    hi_start[v] = hi_end;  // the pass below counts it down to the start
    const std::size_t lo_count = lo_next[v];
    lo_next[v] = lo_begin;
    lo_begin += lo_count;
  }
  hi_start[n] = hi_end;
  std::vector<NodeId> lows(edges.size());
  for (const auto& [lo, hi] : edges) lows[--hi_start[hi]] = lo;
  for (NodeId hi = 0; hi < n; ++hi) {
    for (std::size_t i = hi_start[hi]; i < hi_start[hi + 1]; ++i)
      edges[lo_next[lows[i]]++] = {lows[i], hi};
  }
  return Graph::from_edges(n, edges);
}

namespace {

// ---------------------------------------------------------------------------
// Phase III carriers.  A logical G~ send travels first along the substrate
// route (SparseRouter), then up the landing node's ranking tree to its
// root.  Each hop is one message in one round -- the accounting the
// paper's "at most T hops of G per edge of G~" uses -- so a delivery's
// latency equals its hop count.  Two executors run the same protocols:
//
//   * sim::Network, for every schedule where a hop can fail or draws
//     randomness (loss, crashes, structured adversity, the armed push-sum,
//     random-walk substrates): each call is one engine envelope re-sent hop
//     by hop, so the FaultSchedule applies to every intermediate carrier;
//   * EventClock (below), for fault-free runs on a keyed router: each call
//     resolves its whole route when it is made and is absorbed in the round
//     the engine would deliver its last hop.

/// The engine's alive set as a routing liveness oracle: Chord hops detour
/// around crashed nodes (stabilized overlay, see routing.hpp).
template <class Msg>
[[nodiscard]] LivenessView liveness_of(const sim::Network<Msg>& net) noexcept {
  return LivenessView{&net, [](const void* p, NodeId v) {
                        return static_cast<const sim::Network<Msg>*>(p)->alive(v);
                      }};
}

/// One hop's outcome, for callers that must distinguish "still traveling"
/// from "died at the holder" (the push-sum carry-ack re-homes the latter).
struct HopOutcome {
  sim::NodeId absorbed = sim::kNoNode;  ///< root that absorbed, or kNoNode
  bool stranded = false;  ///< route gave up / landed on a non-member: the
                          ///< payload is at the holder with nowhere to go
};

/// Common hop step shared by both Phase III protocols.  Returns the root
/// the message has arrived at (absorption point); absorbed == kNoNode
/// means the message was forwarded one hop, or -- when `stranded` is set
/// -- died at the current holder (a kStranded route around dead lattice
/// regions, or a landing on a non-member such as a mid-run joiner).
///
/// `crash_free` selects the devirtualized fast hop (computed once per run
/// from FaultSchedule::crash_free()): with every node alive for the whole
/// run the stabilized detours are identities, so the keyed modes skip the
/// LivenessView indirection entirely.  Keyed modes draw no per-hop
/// randomness on either path, so the holder's RNG slot is only touched
/// for walks -- lazily constructed streams are pure functions of
/// (seed, node), making the elision observationally invisible.
template <class Msg>
[[nodiscard]] HopOutcome route_or_climb(sim::Network<Msg>& net, const Forest& forest,
                                        const SparseRouter& router, bool crash_free,
                                        sim::NodeId x, Msg&& m, std::uint32_t bits) {
  if (!m.climbing) {
    if (m.route.mode != RouteState::Mode::kDone) {
      NodeId nh;
      if (m.route.mode == RouteState::Mode::kWalk) {
        nh = router.next_hop(x, m.route, net.node_rng(x));
      } else if (crash_free) {
        nh = router.next_hop_fast(x, m.route);
      } else {
        nh = router.next_hop_live(x, m.route, liveness_of(net));
      }
      if (nh != x) {
        net.send(x, nh, std::move(m), bits);
        return {};
      }
      if (m.route.mode == RouteState::Mode::kStranded)
        return {sim::kNoNode, true};  // dead-end detour: payload stuck at x
    }
    m.climbing = true;  // the route has arrived at x
  }
  if (!forest.is_member(x)) return {sim::kNoNode, true};  // joiner / non-member
  const NodeId parent = forest.parent(x);
  if (parent != kNoParent) {
    // Tree walk: one more hop of G per level, forwarded next round.  A
    // crashed parent simply never delivers -- churn severs the path.
    net.send(x, parent, std::move(m), bits);
    return {};
  }
  return {x, false};  // x is a root: absorb
}

// ---------------------------------------------------------------------------
// Event-time Phase III.  On a fault-free run with a keyed router nothing
// can happen to a G~ call between its send and its absorption: no hop is
// lost, no carrier dies, and no hop draws randomness.  The whole route is
// known when the call is made -- SparseRouter::resolve, then the climb of
// Forest::depth hops to Forest::root_of -- and so is the round in which the
// engine would deliver its last hop.  EventClock books each call in that
// round's bucket and absorbs it there, with no per-hop envelope.  It
// reproduces the engine path bit for bit:
//
//   * Absorption round.  A call made in round c with h >= 1 hops is
//     absorbed while round c + h - 1 is delivered (its first hop is
//     delivered in round c, each forward one round later); with h = 0 it
//     is absorbed inside the caller's upcall.  A reply created while round
//     a is delivered sends its first hop in round a + 1, so it is absorbed
//     in round a + h, or at once when h = 0.
//   * Absorption order.  The engine delivers each round in (creation
//     round, creation index) order: forwards keep their relative order
//     from round to round, each round's fresh calls are appended after
//     them, and a routed inquiry reply takes its inquiry's place.  Calls
//     are booked in that order already; replies are booked later than
//     their place says, so they are sorted and merged in.  Every
//     push-sum addition and every max-merge -- and the key an inquiry
//     reads -- happens in the engine's order.
//   * Counters.  Every hop is sent and delivered: sent = delivered = the
//     sum of hops, and lost = 0.  `rounds` counts the engine's steps, and
//     a drain ends when nothing is booked, the engine's quiescent().
//   * Randomness.  Each root draws its routes from the engine's own
//     per-node stream (Network::node_rng, same purpose), in root order.
//
// A protocol supplies calling() (do roots call this round?), call(root)
// (the payload, updating the root's state) and absorb(clock, order, root,
// payload), which may send a reply through clock.launch.

/// A booked call: absorbed at `root` in its bucket's round, in `order`:
/// creation round << 32 | the caller's index in roots().
template <class Payload>
struct Booked {
  std::uint64_t order;
  NodeId root;
  Payload payload;
};

template <class Payload>
struct EventBucket {
  std::vector<Booked<Payload>> calls;    ///< booked in order
  std::vector<Booked<Payload>> replies;  ///< booked out of order
};

template <class Payload>
class EventClock {
 public:
  /// The round buckets and the roots' streams are pooled per thread
  /// (support/scratch.hpp), so a run allocates nothing here once warm.
  EventClock(const SparseRouter& router, const Forest& forest, const RngFactory& rngs,
             std::uint64_t purpose)
      : router_(router),
        forest_(forest),
        roots_(forest.roots()),
        streams_(support::scratch_buffer<Rng, kScratchRootStreams>()),
        ring_(support::scratch_buffer<EventBucket<Payload>, kScratchEventRing>()) {
    streams_.clear();
    for (const NodeId r : roots_) streams_.push_back(rngs.node_stream(r, purpose));
    // Bookings lie at most one route plus one climb ahead of the round.
    const std::size_t span =
        std::bit_ceil(std::size_t{router.max_route_hops()} + forest.max_tree_height() + 1);
    if (ring_.size() < span) ring_.resize(span);
    mask_ = span - 1;
    for (std::size_t i = 0; i < span; ++i) {
      ring_[i].calls.clear();
      ring_[i].replies.clear();
    }
  }

  [[nodiscard]] bool quiescent() const noexcept { return booked_ == 0; }

  /// One engine step: the roots' upcalls, then the round's deliveries.
  template <class P>
  void step(P& proto) {
    if (proto.calling()) {
      const std::uint64_t round_order = std::uint64_t{round_} << 32;
      for (std::uint32_t i = 0; i < roots_.size(); ++i) {
        const NodeId v = roots_[i];
        const RouteState route = router_.begin_random(v, streams_[i]);
        launch(proto, v, route, round_order | i, proto.call(v));
      }
    }
    // Absorbing books replies into later rounds only, never into `due`.
    EventBucket<Payload>& due = ring_[round_ & mask_];
    booked_ -= due.calls.size() + due.replies.size();
    delivering_ = true;
    std::sort(due.replies.begin(), due.replies.end(),
              [](const Booked<Payload>& a, const Booked<Payload>& b) { return a.order < b.order; });
    auto reply = due.replies.begin();
    for (const Booked<Payload>& call : due.calls) {
      for (; reply != due.replies.end() && reply->order < call.order; ++reply)
        proto.absorb(*this, reply->order, reply->root, reply->payload);
      proto.absorb(*this, call.order, call.root, call.payload);
    }
    for (; reply != due.replies.end(); ++reply)
      proto.absorb(*this, reply->order, reply->root, reply->payload);
    due.calls.clear();
    due.replies.clear();
    delivering_ = false;
    ++round_;
  }

  /// Sends `payload` from `from` along `route`: absorbed at once when the
  /// route and the climb take no hop, else booked for the round the engine
  /// would deliver the last hop in.
  template <class P>
  void launch(P& proto, NodeId from, const RouteState& route, std::uint64_t order,
              const Payload& payload) {
    const RouteEnd end = router_.resolve(from, route);
    const std::uint32_t hops = end.hops + forest_.depth(end.at);
    const NodeId root = forest_.root_of(end.at);
    hops_ += hops;
    if (hops == 0) {
      proto.absorb(*this, order, root, payload);
      return;
    }
    assert(hops <= mask_);
    // A send made while a round is delivered goes out the next round.
    EventBucket<Payload>& b = ring_[(round_ + hops - (delivering_ ? 0 : 1)) & mask_];
    (delivering_ ? b.replies : b.calls).push_back(Booked<Payload>{order, root, payload});
    ++booked_;
  }

  /// The engine's counters for messages of `bits` bits each.
  [[nodiscard]] sim::Counters counters(std::uint32_t bits) const noexcept {
    sim::Counters c;
    c.sent = hops_;
    c.delivered = hops_;
    c.bits = hops_ * bits;
    c.rounds = round_;
    return c;
  }

 private:
  const SparseRouter& router_;
  const Forest& forest_;
  std::span<const NodeId> roots_;
  std::vector<Rng>& streams_;                // roots_[i] draws from streams_[i]
  std::vector<EventBucket<Payload>>& ring_;  // slot = round & mask_
  std::size_t mask_ = 0;
  std::uint64_t booked_ = 0;
  std::uint64_t hops_ = 0;
  std::uint32_t round_ = 0;
  bool delivering_ = false;
};

// ---------------------------------------------------------------------------
// Routed Gossip-max over the forest roots (Algorithm 4 on the substrate).

struct SgmMsg {
  enum class Kind : std::uint8_t { kGossip, kInquiry, kReply };
  std::uint64_t key = 0;
  std::uint64_t aux = 0;  // payload riding the key (spread: the estimate)
  RouteState route;
  sim::NodeId origin = sim::kNoNode;  // inquiring root (kInquiry)
  Kind kind = Kind::kGossip;
  bool climbing = false;  // routing finished; walking up the tree
};

/// What an event-time gossip-max call carries (the SgmMsg fields that
/// outlive the route).
struct GmLoad {
  std::uint64_t key = 0;
  std::uint64_t aux = 0;
  sim::NodeId origin = sim::kNoNode;
  SgmMsg::Kind kind = SgmMsg::Kind::kGossip;
};

struct SparseGmResult {
  std::vector<std::uint64_t> key;
  std::vector<std::uint64_t> aux;
  sim::Counters counters;
  std::uint32_t rounds = 0;
};

struct SparseGossipMaxProtocol {
  enum class Procedure : std::uint8_t { kIdle, kGossip, kSampling };

  const Forest& forest;
  const SparseRouter& router;
  std::vector<std::uint64_t> key;
  std::vector<std::uint64_t> aux;  // adopted alongside a larger key
  std::uint32_t bits;
  bool crash_free;
  Procedure procedure = Procedure::kIdle;

  SparseGossipMaxProtocol(const Forest& f, const SparseRouter& r, bool crash_free_run,
                          std::span<const std::uint64_t> init,
                          std::span<const std::uint64_t> init_aux, std::uint32_t n)
      : forest(f),
        router(r),
        key(n, kKeyBottom),
        aux(n, 0),
        bits((init_aux.empty() ? 64 : 2 * 64) + 2 * address_bits(n)),
        crash_free(crash_free_run) {
    for (NodeId root : f.roots()) {
      key[root] = init[root];
      if (!init_aux.empty()) aux[root] = init_aux[root];
    }
  }

  /// Only roots act; the engine thins its upcall scans to the root list.
  [[nodiscard]] std::span<const sim::NodeId> active_nodes() const noexcept {
    return forest.roots();
  }

  void on_round(sim::Network<SgmMsg>& net, sim::NodeId v) {
    if (procedure == Procedure::kIdle) return;
    SgmMsg m;
    m.route = router.begin_random(v, net.node_rng(v));
    if (procedure == Procedure::kGossip) {
      m.key = key[v];
      m.aux = aux[v];
    } else {
      m.kind = SgmMsg::Kind::kInquiry;
      m.origin = v;
    }
    hop(net, v, std::move(m));
  }

  void on_message(sim::Network<SgmMsg>& net, sim::NodeId, sim::NodeId dst, const SgmMsg& m) {
    hop(net, dst, SgmMsg{m});
  }

  void merge(sim::NodeId at, std::uint64_t k, std::uint64_t a) {
    if (k > key[at]) {
      key[at] = k;
      aux[at] = a;
    }
  }

  void hop(sim::Network<SgmMsg>& net, sim::NodeId x, SgmMsg&& m) {
    // Stranded gossip dies at the holder: max-merge keys are idempotent
    // retransmitted state, so a lost copy costs redundancy, not mass.
    const sim::NodeId at =
        route_or_climb(net, forest, router, crash_free, x, std::move(m), bits).absorbed;
    if (at == sim::kNoNode) return;
    switch (m.kind) {
      case SgmMsg::Kind::kGossip:
      case SgmMsg::Kind::kReply:
        merge(at, m.key, m.aux);
        break;
      case SgmMsg::Kind::kInquiry: {
        // Reply to the inquiring root: routed where the substrate has a
        // keyed scheme, one direct send otherwise (the established-call
        // convention -- the non-address-oblivious step of Algorithm 4).
        SgmMsg reply;
        reply.key = key[at];
        reply.aux = aux[at];
        reply.kind = SgmMsg::Kind::kReply;
        reply.route = router.begin_directed(m.origin);
        if (reply.route.mode == RouteState::Mode::kDone && at != m.origin) {
          net.send(at, m.origin, std::move(reply), bits);
        } else {
          hop(net, at, std::move(reply));
        }
        break;
      }
    }
  }

  // Event time (EventClock): the same procedures, absorbed per call.
  [[nodiscard]] bool calling() const noexcept { return procedure != Procedure::kIdle; }

  [[nodiscard]] GmLoad call(sim::NodeId v) const noexcept {
    if (procedure == Procedure::kGossip)
      return {key[v], aux[v], sim::kNoNode, SgmMsg::Kind::kGossip};
    return {0, 0, v, SgmMsg::Kind::kInquiry};
  }

  void absorb(EventClock<GmLoad>& clock, std::uint64_t order, sim::NodeId at, const GmLoad& m) {
    if (m.kind != SgmMsg::Kind::kInquiry) {
      merge(at, m.key, m.aux);
      return;
    }
    // The reply takes the inquiry's place in the delivery order.
    clock.launch(*this, at, router.begin_directed(m.origin), order,
                 GmLoad{key[at], aux[at], sim::kNoNode, SgmMsg::Kind::kReply});
  }
};

// ---------------------------------------------------------------------------
// Routed push-sum over the forest roots (Algorithm 6 on the substrate).

struct SpsMsg {
  enum class Kind : std::uint8_t {
    kShare,  ///< a traveling (num, den) half
    kAck,    ///< carry-ack: custody of `seq` accepted (armed runs only)
  };
  double num = 0.0;
  double den = 0.0;
  RouteState route;
  std::uint32_t seq = 0;  ///< sender-local custody id (armed runs only)
  Kind kind = Kind::kShare;
  bool climbing = false;
};

/// What an event-time push-sum call carries.
struct PsLoad {
  double num = 0.0;
  double den = 0.0;
};

struct SparsePsResult {
  std::vector<double> num;
  std::vector<double> den;
  sim::Counters counters;
  std::uint32_t rounds = 0;
};

/// Routed push-sum, optionally *armed* with the hop-level carry-ack
/// (PushSumConfig::hop_carry_ack).  Unarmed, a share whose next carrier
/// crashed -- or whose hop the loss coin ate -- vanishes, and push-sum's
/// conservation law (sum num, sum den invariant) erodes by O(loss) per
/// hop.  Armed, every hop is a custody transfer: the sender parks the
/// share's mass in a pending slot until the receiver acks custody on the
/// established call (reliable, same round as the delivery).  A pending
/// that outlives its ack window -- the hop was lost or the carrier died
/// mid-flight -- is retransmitted from the stored pre-hop route state: the
/// holder recomputes the same hop against *current* liveness (ARQ with
/// route progress kept; a freshly dead next carrier turns into a detour,
/// not a restart).  Only a share stranded at the holder itself re-homes on
/// a fresh random route -- its old route is a proven dead end.  Restarting
/// every lost hop from scratch would make long routes statistically
/// un-completable (success (1-loss)^hops per attempt); resuming keeps the
/// expected cost at hops * (1 + loss/(1-loss) * reclaim_after) rounds.
/// Mass held by a node that itself crashes dies with it (that is
/// physical); everything else is conserved.
///
/// No double-count: an ack rides the reply step of the delivery round,
/// which is at most sent_round + 1 + latency_bound; reclaim fires at
/// on_round_end of sent_round + 2 + latency_bound, strictly after any
/// possible ack has been drained.  Armed runs scan every node (any
/// carrier may hold pendings); unarmed runs keep the historical
/// roots-only upcall set and never touch the ack fields -- the unarmed
/// path is byte-identical to the pre-carry-ack protocol.
struct SparsePushSumProtocol {
  struct Pending {
    std::uint32_t seq = 0;
    std::uint32_t sent_round = 0;
    double num = 0.0;
    double den = 0.0;
    RouteState route;          ///< pre-hop route state (retransmit resumes here)
    bool climbing = false;     ///< pre-hop tree-walk flag
    bool stranded = false;     ///< no viable hop existed: re-home, don't resume
  };
  static constexpr std::uint32_t kAckBits = 32;  // custody id on the open call

  const Forest& forest;
  const SparseRouter& router;
  std::vector<double> num;
  std::vector<double> den;
  std::uint32_t bits;
  bool crash_free;
  bool armed;
  std::uint32_t reclaim_after;  ///< rounds before an unacked pending re-homes
  bool initiate = false;
  std::vector<std::vector<Pending>> pending;  // armed: per-node custody slots
  std::vector<std::uint32_t> next_seq;
  std::vector<sim::NodeId> all_ids;  // armed upcall set (every node)
  std::uint64_t pending_total = 0;

  SparsePushSumProtocol(const Forest& f, const SparseRouter& r, bool crash_free_run,
                        std::span<const double> num0, std::span<const double> den0,
                        std::uint32_t n, bool carry_ack, std::uint32_t latency_bound)
      : forest(f),
        router(r),
        num(n, 0.0),
        den(n, 0.0),
        bits(2 * 64 + address_bits(n)),
        crash_free(crash_free_run),
        armed(carry_ack),
        reclaim_after(2 + latency_bound) {
    for (NodeId root : f.roots()) {
      num[root] = num0[root];
      den[root] = den0[root];
    }
    if (armed) {
      pending.resize(n);
      next_seq.assign(n, 0);
      all_ids.resize(n);
      for (std::uint32_t v = 0; v < n; ++v) all_ids[v] = v;
    }
  }

  [[nodiscard]] std::span<const sim::NodeId> active_nodes() const noexcept {
    return armed ? std::span<const sim::NodeId>{all_ids} : forest.roots();
  }

  [[nodiscard]] bool is_root(sim::NodeId v) const noexcept {
    return forest.is_member(v) && forest.parent(v) == kNoParent;
  }

  void on_round(sim::Network<SpsMsg>& net, sim::NodeId v) {
    if (!initiate) return;
    if (armed && !is_root(v)) return;  // armed runs scan every node
    num[v] *= 0.5;
    den[v] *= 0.5;
    SpsMsg m;
    m.num = num[v];
    m.den = den[v];
    m.route = router.begin_random(v, net.node_rng(v));
    hop(net, v, std::move(m));
  }

  void on_message(sim::Network<SpsMsg>& net, sim::NodeId src, sim::NodeId dst,
                  const SpsMsg& m) {
    if (armed) {
      if (m.kind == SpsMsg::Kind::kAck) {
        drop_pending(dst, m.seq);  // custody transferred downstream
        return;
      }
      SpsMsg ack;
      ack.kind = SpsMsg::Kind::kAck;
      ack.seq = m.seq;
      net.reply(dst, src, std::move(ack), kAckBits);
    }
    hop(net, dst, SpsMsg{m});
  }

  void hop(sim::Network<SpsMsg>& net, sim::NodeId x, SpsMsg&& m) {
    if (!armed) {
      const sim::NodeId at =
          route_or_climb(net, forest, router, crash_free, x, std::move(m), bits)
              .absorbed;
      if (at == sim::kNoNode) return;
      num[at] += m.num;
      den[at] += m.den;
      return;
    }
    const double half_num = m.num, half_den = m.den;
    m.seq = next_seq[x]++;
    const std::uint32_t seq = m.seq;
    const RouteState pre_route = m.route;  // resume point for a lost hop
    const bool pre_climbing = m.climbing;
    const HopOutcome hr =
        route_or_climb(net, forest, router, crash_free, x, std::move(m), bits);
    if (hr.absorbed != sim::kNoNode) {
      num[hr.absorbed] += half_num;
      den[hr.absorbed] += half_den;
      return;
    }
    // Forwarded: custody parked until the next carrier acks; the reclaim
    // sweep retransmits from pre_route.  Stranded: the same slot with no
    // ack ever coming -- parked rather than re-launched inline, which also
    // breaks the boxed-in livelock of re-launching into the same dead
    // region within one round.
    pending[x].push_back(
        Pending{seq, net.round(), half_num, half_den, pre_route, pre_climbing,
                hr.stranded});
    ++pending_total;
  }

  void on_round_end(sim::Network<SpsMsg>& net, sim::NodeId v) {
    if (!armed || pending[v].empty()) return;
    std::vector<Pending>& pv = pending[v];
    for (std::size_t i = 0; i < pv.size();) {
      if (net.round() < pv[i].sent_round + reclaim_after) {
        ++i;
        continue;
      }
      const Pending p = pv[i];  // take it out, then resend (hop() appends)
      pv[i] = pv.back();
      pv.pop_back();
      --pending_total;
      SpsMsg m;
      m.num = p.num;
      m.den = p.den;
      if (p.stranded) {
        // The stored route dead-ended at v itself: only a fresh route (new
        // target, full TTL) can make progress.
        m.route = router.begin_random(v, net.node_rng(v));
      } else {
        // Lost hop (or carrier death): resume from the pre-hop state, so
        // route progress survives and the retransmit adapts to liveness.
        m.route = p.route;
        m.climbing = p.climbing;
      }
      hop(net, v, std::move(m));
    }
  }

  // Event time (EventClock), unarmed runs only.
  [[nodiscard]] bool calling() const noexcept { return initiate; }

  [[nodiscard]] PsLoad call(sim::NodeId v) noexcept {
    num[v] *= 0.5;
    den[v] *= 0.5;
    return {num[v], den[v]};
  }

  void absorb(EventClock<PsLoad>&, std::uint64_t, sim::NodeId at, const PsLoad& m) noexcept {
    num[at] += m.num;
    den[at] += m.den;
  }

  /// Folds every outstanding custody slot back into its holder's own
  /// pair.  Called once after the drain: by then any slot still pending
  /// was never delivered (acks are same-round), so the fold restores the
  /// conservation law exactly -- mass a crashed node held stays lost,
  /// which is the physical outcome.
  void fold_back_pending() {
    if (!armed) return;
    for (sim::NodeId v : all_ids) {
      for (const Pending& p : pending[v]) {
        num[v] += p.num;
        den[v] += p.den;
      }
      pending[v].clear();
    }
    pending_total = 0;
  }

 private:
  void drop_pending(sim::NodeId v, std::uint32_t seq) {
    std::vector<Pending>& pv = pending[v];
    for (std::size_t i = 0; i < pv.size(); ++i) {
      if (pv[i].seq == seq) {
        pv[i] = pv.back();
        pv.pop_back();
        --pending_total;
        return;
      }
    }
  }
};

/// Runs `steps` initiation rounds with the protocol live, then drains
/// until the network is quiescent (every in-flight envelope has landed or
/// died), capped by the longest possible residual path.  `Net` is a
/// sim::Network or an EventClock.
template <class Net, class P>
void run_then_drain(Net& net, P& proto, std::uint32_t steps, std::uint32_t drain_cap) {
  for (std::uint32_t r = 0; r < steps; ++r) net.step(proto);
  for (std::uint32_t r = 0; r < drain_cap && !net.quiescent(); ++r) net.step(proto);
}

/// Residual-path bound: substrate route + tree climb + slack.
[[nodiscard]] std::uint32_t drain_cap(const SparseRouter& router, const Forest& forest,
                                      std::uint32_t slack) {
  return router.max_route_hops() + forest.max_tree_height() + slack + 2;
}

/// Phase III's round budgets on a routed substrate, for both executors:
/// G gossip and S sampling rounds of gossip-max and data-spread, T
/// initiation rounds of push-sum, and the drain caps after them.  Each is
/// the dense schedule's O(log n) budget, scaled by its config's
/// round_budget_scale as the dense protocols scale theirs (a factor of
/// exactly 1 by default), and stretched for routed latency:
///   * event-time latency stretches each routed G~ generation by the
///     expected call delay, so G, S and T are scaled by it (and the drain
///     horizons by the worst case); factor 1 at latency 0;
///   * a push-sum share initiated now only re-mixes after its
///     ~typical_route_hops() trip, so T is scaled by (1 + typical/log2 n)
///     to preserve the number of completed mixing generations -- a
///     constant factor on Chord (typical = Theta(log n)), and message
///     complexity stays O(n log n);
///   * armed lossy push-sum retransmits each lost hop after reclaim_after
///     rounds, stretching a route by an expected (1 + loss/(1-loss) *
///     reclaim_after) factor; T is scaled to match.  Exactly 1 unarmed or
///     lossless.
struct RoutedBudget {
  std::uint32_t gossip = 0;        ///< G
  std::uint32_t sampling = 0;      ///< S
  std::uint32_t gossip_drain = 0;  ///< cap after G; twice it after S
  std::uint32_t push = 0;          ///< T
  std::uint32_t push_drain = 0;    ///< cap after T
};

[[nodiscard]] RoutedBudget routed_budget(std::uint32_t n, const SparseRouter& router,
                                         const Forest& forest,
                                         const sim::FaultSchedule& faults,
                                         const GossipMaxConfig& gm, const PushSumConfig& ps) {
  const auto log_n = static_cast<double>(ceil_log2(n));
  const double lat = 1.0 + faults.latency.mean();
  const std::uint32_t stretch = 1 + faults.latency.bound();
  RoutedBudget b;
  b.gossip = static_cast<std::uint32_t>(gm.gossip_multiplier * log_n * lat *
                                        gm.round_budget_scale);
  b.sampling = static_cast<std::uint32_t>(gm.sampling_multiplier * log_n * lat *
                                          gm.round_budget_scale);
  b.gossip_drain = stretch * drain_cap(router, forest, gm.drain_rounds);
  const double loss = faults.loss_prob;
  const double reclaim_after = 2.0 + faults.latency.bound();
  const double arq_scale = (ps.hop_carry_ack && loss > 0.0 && loss < 1.0)
                               ? 1.0 + loss / (1.0 - loss) * reclaim_after
                               : 1.0;
  const double latency_scale =
      (1.0 + static_cast<double>(router.typical_route_hops()) / log_n) * lat;
  b.push = static_cast<std::uint32_t>(ps.rounds_multiplier * log_n * latency_scale *
                                      arq_scale * ps.round_budget_scale) +
           ps.extra_rounds;
  b.push_drain = stretch * drain_cap(router, forest, b.push);
  return b;
}

/// True when no routed call can fail and no hop draws randomness: the
/// schedule is §2's fault model with no loss and nobody crashed, and the
/// router is keyed.  Phase III then runs in event time.
[[nodiscard]] bool runs_in_event_time(std::uint32_t n, const SparseRouter& router,
                                      const RngFactory& rngs, const sim::Scenario& scenario,
                                      std::uint64_t purpose) {
  const sim::FaultSchedule& f = scenario.faults;
  if (!router.keyed() || !f.paper_model() || f.loss_prob > 0.0) return false;
  // A crash fraction may still round to nobody at small n.
  return f.crash_fraction <= 0.0 || !sim::CallFaults{n, rngs, scenario, purpose}.active();
}

template <class Net>
void run_gossip_max_procedures(Net& net, SparseGossipMaxProtocol& proto,
                               const RoutedBudget& budget) {
  // Procedures are gated off before each drain: with roots still
  // initiating, the quiescence exit would be unreachable and the drain
  // rounds would silently double the configured O(log n) G~ budget.
  using Procedure = SparseGossipMaxProtocol::Procedure;
  proto.procedure = Procedure::kGossip;
  run_then_drain(net, proto, budget.gossip, 0);
  proto.procedure = Procedure::kIdle;
  run_then_drain(net, proto, 0, budget.gossip_drain);
  proto.procedure = Procedure::kSampling;
  run_then_drain(net, proto, budget.sampling, 0);
  proto.procedure = Procedure::kIdle;
  // Replies may chain one more routed leg; drain with double headroom.
  run_then_drain(net, proto, 0, 2 * budget.gossip_drain);
}

SparseGmResult run_sparse_gossip_max(std::uint32_t n, const SparseRouter& router,
                                     const Forest& forest,
                                     std::span<const std::uint64_t> init,
                                     const RngFactory& rngs, const sim::Scenario& scenario,
                                     const GossipMaxConfig& cfg, const RoutedBudget& budget,
                                     std::span<const std::uint64_t> init_aux = {}) {
  const std::uint64_t purpose = derive_seed(0x59a2, cfg.stream_tag);
  SparseGossipMaxProtocol proto{forest, router, scenario.faults.crash_free(), init,
                                init_aux, n};
  SparseGmResult result;
  if (runs_in_event_time(n, router, rngs, scenario, purpose)) {
    EventClock<GmLoad> clock{router, forest, rngs, purpose};
    run_gossip_max_procedures(clock, proto, budget);
    result.counters = clock.counters(proto.bits);
  } else {
    sim::Network<SgmMsg> net{n, rngs, scenario, purpose};
    run_gossip_max_procedures(net, proto, budget);
    result.counters = net.counters();
  }
  result.key = std::move(proto.key);
  result.aux = std::move(proto.aux);
  result.rounds = result.counters.rounds;
  return result;
}

SparsePsResult run_sparse_push_sum(std::uint32_t n, const SparseRouter& router,
                                   const Forest& forest, std::span<const double> num0,
                                   std::span<const double> den0, const RngFactory& rngs,
                                   const sim::Scenario& scenario, const PushSumConfig& cfg,
                                   const RoutedBudget& budget) {
  const std::uint64_t purpose = derive_seed(0x59b2, cfg.stream_tag);
  SparsePushSumProtocol proto{forest,
                              router,
                              scenario.faults.crash_free(),
                              num0,
                              den0,
                              n,
                              cfg.hop_carry_ack,
                              scenario.faults.latency.bound()};
  SparsePsResult result;
  if (!proto.armed && runs_in_event_time(n, router, rngs, scenario, purpose)) {
    EventClock<PsLoad> clock{router, forest, rngs, purpose};
    proto.initiate = true;
    run_then_drain(clock, proto, budget.push, 0);
    proto.initiate = false;
    run_then_drain(clock, proto, 0, budget.push_drain);
    result.counters = clock.counters(proto.bits);
  } else {
    sim::Network<SpsMsg> net{n, rngs, scenario, purpose};
    proto.initiate = true;
    run_then_drain(net, proto, budget.push, 0);
    proto.initiate = false;
    if (!proto.armed) {
      run_then_drain(net, proto, 0, budget.push_drain);
    } else {
      // Armed drain: quiescence alone is not enough -- parked custody
      // re-homes after its ack window, re-launching traffic.  Allow a few
      // reclaim generations, then fold whatever is still boxed in back
      // into its holder (conservation over reachability).
      const std::uint32_t armed_cap = 4 * (budget.push_drain + proto.reclaim_after);
      for (std::uint32_t r = 0;
           r < armed_cap && !(net.quiescent() && proto.pending_total == 0); ++r) {
        net.step(proto);
      }
      proto.fold_back_pending();
    }
    result.counters = net.counters();
  }
  result.num = std::move(proto.num);
  result.den = std::move(proto.den);
  result.rounds = result.counters.rounds;
  return result;
}

/// Final value broadcast + consensus bookkeeping of the sparse pipelines.
/// Consensus is judged among the roots that survive the *whole* run
/// (value-broadcast rounds included, so the reported value never
/// originates from a root the participating mask excludes): a root
/// crashed mid-run holds a frozen key that no live participant can
/// observe.  Fault-free and crash-only runs see every root, the
/// historical criterion.
void sparse_finish(const Forest& forest, std::span<const double> root_value,
                   const RngFactory& rngs, const sim::Scenario& scenario,
                   const SparseGossipConfig& config, AggregateOutcome& out) {
  const bool bc_incomplete =
      config.broadcast_result &&
      !broadcast_value(forest, root_value, rngs, scenario, config.broadcast, out);
  const std::vector<bool> alive = keep_final_survivors(rngs, scenario, out);

  NodeId agree_root = kNoParent;  // largest surviving tree, ties to small id
  for (NodeId r : forest.roots()) {
    if (!alive.empty() && !alive[r]) continue;
    if (agree_root == kNoParent || forest.tree_size(r) > forest.tree_size(agree_root))
      agree_root = r;
  }
  if (agree_root == kNoParent) {  // every root died: no consensus to report
    out.consensus = false;
    return;
  }
  out.value = root_value[agree_root];
  out.consensus = roots_agree(forest, root_value, out.value, alive);
  // Under mid-run deaths (churn or block outages) a tree whose root died
  // is legitimately cut off; the roots' agreement above is the consensus
  // criterion then.  Otherwise incompleteness means retry exhaustion.
  if (bc_incomplete && !scenario.faults.has_churn() && !scenario.faults.has_blocks())
    out.consensus = false;
}

// ---------------------------------------------------------------------------
// The two pipelines, generic in the (links graph, router) pair.

AggregateOutcome sparse_max_pipeline(std::uint32_t n, const Graph& links,
                                     const SparseRouter& router,
                                     std::span<const double> values, std::uint64_t seed,
                                     const sim::Scenario& scenario,
                                     SparseGossipConfig config) {
  if (values.size() < n) throw std::invalid_argument("sparse_drr_gossip: values too short");
  config.broadcast.simultaneous_children = true;  // §4 Assumption 1
  RngFactory rngs{seed};

  AggregateOutcome out;
  const LocalDrrResult drr = run_local_drr(links, rngs, scenario, config.local_drr);
  const Forest& forest = drr.forest;
  const Phase12 p = run_phase12(drr, values, ConvergecastOp::kMax, rngs, scenario,
                                config.convergecast, config.broadcast, out);
  if (forest.roots().empty()) return out;

  std::vector<std::uint64_t>& keys =
      support::scratch_buffer<std::uint64_t, kScratchKeys>();
  keys.assign(n, kKeyBottom);
  for (NodeId r : forest.roots()) keys[r] = encode_ordered(p.cc.aggregate[r]);
  GossipMaxConfig gm_cfg = config.gossip_max;
  gm_cfg.stream_tag = derive_seed(gm_cfg.stream_tag, 3);
  const RoutedBudget budget =
      routed_budget(n, router, forest, scenario.faults, config.gossip_max, config.push_sum);
  const SparseGmResult gm = run_sparse_gossip_max(
      n, router, forest, keys, rngs, scenario.at_round(p.end_round), gm_cfg, budget);
  out.metrics.gossip = gm.counters;
  out.rounds_total += gm.rounds;

  std::vector<double>& root_value =
      support::scratch_buffer<double, kScratchRootValue>();
  root_value.assign(n, 0.0);
  for (NodeId r : forest.roots()) root_value[r] = decode_ordered(gm.key[r]);
  sparse_finish(forest, root_value, rngs, scenario, config, out);
  return out;
}

AggregateOutcome sparse_ave_pipeline(std::uint32_t n, const Graph& links,
                                     const SparseRouter& router,
                                     std::span<const double> values, std::uint64_t seed,
                                     const sim::Scenario& scenario,
                                     SparseGossipConfig config) {
  if (values.size() < n) throw std::invalid_argument("sparse_drr_gossip: values too short");
  config.broadcast.simultaneous_children = true;  // §4 Assumption 1
  RngFactory rngs{seed};

  AggregateOutcome out;
  const LocalDrrResult drr = run_local_drr(links, rngs, scenario, config.local_drr);
  const Forest& forest = drr.forest;
  const Phase12 p = run_phase12(drr, values, ConvergecastOp::kSum, rngs, scenario,
                                config.convergecast, config.broadcast, out);
  if (forest.roots().empty()) return out;

  // Phase III(a): push-sum on (local sum, tree size).
  std::vector<double>& num0 = support::scratch_buffer<double, kScratchNum0>();
  std::vector<double>& den0 = support::scratch_buffer<double, kScratchDen0>();
  num0.assign(n, 0.0);
  den0.assign(n, 0.0);
  for (NodeId r : forest.roots()) {
    num0[r] = p.cc.aggregate[r];
    den0[r] = p.cc.weight[r];
  }
  PushSumConfig ps_cfg = config.push_sum;
  ps_cfg.stream_tag = derive_seed(ps_cfg.stream_tag, 5);
  const RoutedBudget budget =
      routed_budget(n, router, forest, scenario.faults, config.gossip_max, config.push_sum);
  const SparsePsResult ps = run_sparse_push_sum(n, router, forest, num0, den0, rngs,
                                                scenario.at_round(p.end_round), ps_cfg, budget);
  out.metrics.gossip = ps.counters;
  out.rounds_total += ps.rounds;

  // Phase III(b): elect-and-spread.  Algorithm 8 first elects z (gossip-
  // max on (tree size, id)), then data-spreads z's estimate; that shape
  // deadlocks under churn when z crashes after its winning key circulated
  // -- no live root believes it is z and nothing spreads.  Fused here:
  // every root spreads (size-key, own estimate) and the estimate rides
  // the key through every max-merge, so all roots converge on the
  // estimate of the largest root that actually managed to spread -- z
  // itself whenever z survives, byte for byte the paper's outcome -- one
  // whole gossip phase cheaper, and immune to z's death.
  std::vector<std::uint64_t>& spread_keys =
      support::scratch_buffer<std::uint64_t, kScratchSpreadKeys>();
  std::vector<std::uint64_t>& spread_aux =
      support::scratch_buffer<std::uint64_t, kScratchSpreadAux>();
  spread_keys.assign(n, kKeyBottom);
  spread_aux.assign(n, 0);
  for (NodeId r : forest.roots()) {
    if (ps.den[r] > 0.0) {
      spread_keys[r] = encode_size_id(static_cast<std::uint32_t>(p.cc.weight[r]), r);
      spread_aux[r] = encode_ordered(ps.num[r] / ps.den[r]);
    }
  }
  GossipMaxConfig spread_cfg = config.gossip_max;
  spread_cfg.stream_tag = derive_seed(spread_cfg.stream_tag, 6);
  const SparseGmResult spread = run_sparse_gossip_max(
      n, router, forest, spread_keys, rngs,
      scenario.at_round(p.end_round + ps.rounds), spread_cfg, budget, spread_aux);
  out.metrics.spread = spread.counters;
  out.rounds_total += spread.rounds;

  std::vector<double>& root_value =
      support::scratch_buffer<double, kScratchRootValue>();
  root_value.assign(n, 0.0);
  for (NodeId r : forest.roots())
    root_value[r] = spread.key[r] == kKeyBottom ? 0.0 : decode_ordered(spread.aux[r]);
  sparse_finish(forest, root_value, rngs, scenario, config, out);
  return out;
}

void check_chord_args(const ChordOverlay& chord, const Graph& links,
                      const sim::Scenario& scenario) {
  if (links.size() != chord.size())
    throw std::invalid_argument("sparse_drr_gossip: graph/overlay mismatch");
  if (!scenario.topology.is_complete())
    throw std::invalid_argument(
        "sparse_drr_gossip: the Chord overlay is the substrate; scenario.topology "
        "must be complete");
}

[[nodiscard]] const Graph& substrate_graph(const sim::Scenario& scenario) {
  if (scenario.topology.is_complete())
    throw std::invalid_argument(
        "sparse_drr_gossip: explicit substrate required (use drr_gossip_* on the "
        "complete topology)");
  if (scenario.topology.graph() == nullptr)
    throw std::invalid_argument(
        "sparse_drr_gossip: the sparse pipeline walks real adjacency and needs "
        "the CSR backend (TopologyBackend::kCsr), not an implicit topology");
  return *scenario.topology.graph();
}

}  // namespace

AggregateOutcome sparse_drr_gossip_max(const ChordOverlay& chord, const Graph& links,
                                       std::span<const double> values, std::uint64_t seed,
                                       const sim::Scenario& scenario,
                                       const SparseGossipConfig& config) {
  check_chord_args(chord, links, scenario);
  return sparse_max_pipeline(chord.size(), links, SparseRouter::on_chord(chord), values,
                             seed, scenario, config);
}

AggregateOutcome sparse_drr_gossip_ave(const ChordOverlay& chord, const Graph& links,
                                       std::span<const double> values, std::uint64_t seed,
                                       const sim::Scenario& scenario,
                                       const SparseGossipConfig& config) {
  check_chord_args(chord, links, scenario);
  return sparse_ave_pipeline(chord.size(), links, SparseRouter::on_chord(chord), values,
                             seed, scenario, config);
}

AggregateOutcome sparse_drr_gossip_max(std::span<const double> values, std::uint64_t seed,
                                       const sim::Scenario& scenario,
                                       const SparseGossipConfig& config) {
  const Graph& g = substrate_graph(scenario);
  return sparse_max_pipeline(g.size(), g, SparseRouter::on_substrate(scenario.topology),
                             values, seed, scenario, config);
}

AggregateOutcome sparse_drr_gossip_ave(std::span<const double> values, std::uint64_t seed,
                                       const sim::Scenario& scenario,
                                       const SparseGossipConfig& config) {
  const Graph& g = substrate_graph(scenario);
  return sparse_ave_pipeline(g.size(), g, SparseRouter::on_substrate(scenario.topology),
                             values, seed, scenario, config);
}

}  // namespace drrg
