#include "core/trial_lanes.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/async.hpp"
#include "core/lane_simd.hpp"
#include "core/scan_kind.hpp"
#include "core/sync.hpp"

namespace rumor::core {

bool trial_lanes_supported() noexcept {
#ifdef RUMOR_TRIAL_LANES
  static const bool supported =
      __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512vl") && __builtin_cpu_supports("avx512bw");
  return supported;
#else
  return false;
#endif
}

bool lanes_eligible(EngineKind kind, const TrialOptions& options,
                    const TrialExtras& extras) noexcept {
  const bool engine = kind == EngineKind::kSync ||
                      (kind == EngineKind::kAsync && extras.view == AsyncView::kGlobalClock);
  // !(loss > 0) mirrors the scalar engines' own has-loss test.
  return engine && options.dynamics == nullptr && options.probe == nullptr &&
         !options.record_history && !(options.message_loss > 0.0) && trial_lanes_supported();
}

[[gnu::noinline, gnu::cold]] void lanes::finish_rejected(std::uint64_t (&state)[4][kLaneWidth],
                                          std::uint64_t* hi, const std::uint64_t* lo,
                                          const std::uint64_t* bound, unsigned mask) {
  for (; mask != 0; mask &= mask - 1) {
    const auto l = static_cast<std::size_t>(std::countr_zero(mask));
    const std::uint64_t b = bound[l];
    if (lo[l] >= (0 - b) % b) continue;  // accepted on the first draw after all
    rng::Engine eng({state[0][l], state[1][l], state[2][l], state[3][l]});
    hi[l] = rng::uniform_below(eng, b);
    for (std::size_t i = 0; i < 4; ++i) state[i][l] = eng.state()[i];
  }
}

#ifdef RUMOR_TRIAL_LANES

namespace {

using namespace lanes;

constexpr std::size_t kIdle = std::numeric_limits<std::size_t>::max();

/// The lane bookkeeping both kernels share, kept in memory between the
/// vector loops: engine states, per-lane trial and start tick, informed
/// counts, and the informed bitsets. Bitsets are interleaved word-major —
/// word c of lane l sits at c * kLaneWidth + l — so the eight lanes' words
/// for one 64-node chunk form one 64-byte vector.
struct LaneBook {
  LaneBook(const Graph& g, NodeId source, const TrialOptions& options,
           std::span<rng::Engine> engines_in, std::uint64_t cap_in)
      : n(g.num_nodes()),
        words((static_cast<std::size_t>(n) + 63) / 64),
        cap(cap_in),
        engines(engines_in),
        out(engines_in.size()),
        informed(words * kLaneWidth, 0) {
    sources.push_back(source);
    for (NodeId extra : options.extra_sources) {
      if (std::find(sources.begin(), sources.end(), extra) == sources.end()) {
        sources.push_back(extra);
      }
    }
    trial.fill(kIdle);
    // Idle lanes keep drawing with the others, so even a lane that never
    // gets a trial needs a valid (nonzero) xoshiro state.
    const auto idle = rng::Engine().state();
    for (std::size_t i = 0; i < 4; ++i) {
      std::fill(std::begin(state[i]), std::end(state[i]), idle[i]);
    }
  }

  /// Loads the next unstarted trial into lane l at tick `now` and seeds its
  /// bitset; false when every trial has started (the lane then idles).
  bool start(std::size_t l, std::uint64_t now) {
    if (next == engines.size()) {
      trial[l] = kIdle;
      return false;
    }
    trial[l] = next++;
    const auto& st = engines[trial[l]].state();
    for (std::size_t i = 0; i < 4; ++i) state[i][l] = st[i];
    clear(informed, l);
    for (NodeId s : sources) {
      informed[(s >> 6) * kLaneWidth + l] |= std::uint64_t{1} << (s & 63);
    }
    count[l] = sources.size();
    start_tick[l] = now;
    return true;
  }

  /// Records lane l's trial and writes its engine back.
  void retire(std::size_t l, double value, std::uint64_t ticks) {
    engines[trial[l]] = rng::Engine({state[0][l], state[1][l], state[2][l], state[3][l]});
    TrialOutcome& o = out[trial[l]];
    o.value = value;
    o.ticks = ticks;
    o.completed = count[l] == n;
  }

  /// Lanes holding a trial, as a vector mask.
  [[nodiscard]] unsigned live() const noexcept {
    unsigned mask = 0;
    for (std::size_t l = 0; l < kLaneWidth; ++l) {
      if (trial[l] != kIdle) mask |= 1u << l;
    }
    return mask;
  }

  void clear(std::vector<std::uint64_t>& bits, std::size_t l) const noexcept {
    for (std::size_t c = 0; c < words; ++c) bits[c * kLaneWidth + l] = 0;
  }

  const NodeId n;
  const std::size_t words;
  const std::uint64_t cap;
  std::span<rng::Engine> engines;
  std::vector<TrialOutcome> out;
  std::vector<NodeId> sources;  // source + extra_sources, deduplicated
  std::vector<std::uint64_t> informed;
  alignas(64) std::uint64_t state[4][kLaneWidth] = {};  // xoshiro word i of lane l
  alignas(64) std::uint64_t count[kLaneWidth] = {};     // informed nodes per lane
  std::array<std::size_t, kLaneWidth> trial{};          // engine index, or kIdle
  std::array<std::uint64_t, kLaneWidth> start_tick{};
  std::size_t next = 0;
};

/// The sync kernel's extra state: the pending (this round's) bitsets, in
/// the informed layout, and the global round counter. Lane l's own round
/// is round - start_tick[l].
struct SyncBook : LaneBook {
  SyncBook(const Graph& g, NodeId source, const TrialOptions& options,
           std::span<rng::Engine> engines_in, std::uint64_t cap_in)
      : LaneBook(g, source, options, engines_in, cap_in), pending(informed.size(), 0) {}

  /// Fills lane l from the queue, retiring trials already complete at
  /// round 0 (every node a source) on the spot, as run_sync does.
  void refill(std::size_t l) {
    while (start(l, round)) {
      clear(pending, l);
      if (count[l] < n) return;
      retire(l, 0.0, 0);
    }
  }

  /// The end of a round: commit every lane's pending bits, then retire the
  /// lanes whose trial completed or reached the cap, and refill them.
  void settle() {
    for (std::size_t c = 0; c < words; ++c) {
      for (std::size_t l = 0; l < kLaneWidth; ++l) {
        const std::uint64_t p = pending[c * kLaneWidth + l];
        if (p == 0) continue;
        informed[c * kLaneWidth + l] |= p;
        count[l] += static_cast<std::uint64_t>(std::popcount(p));
        pending[c * kLaneWidth + l] = 0;
      }
    }
    for (std::size_t l = 0; l < kLaneWidth; ++l) {
      if (trial[l] == kIdle) continue;
      const std::uint64_t r = round - start_tick[l];
      if (count[l] < n && r < cap) continue;
      retire(l, static_cast<double>(r), r);
      refill(l);
    }
  }

  std::vector<std::uint64_t> pending;
  std::uint64_t round = 0;
};

/// Events a lane's clock log holds before it is replayed.
constexpr std::size_t kLogDepth = 256;

/// The async kernel's extra state. Each tick multiplies its uniform into
/// the lane's `prod`, as the scalar loop does; a tick that informs or folds
/// (prod < kFoldBelow) appends prod to the lane's event log and resets it
/// to 1. replay() later runs the scalar's `now -= log(prod) / n` on the
/// logged values in tick order — the scalar fold sequence exactly, with the
/// std::log calls kept out of the vector loop. A fold and an inform in one
/// tick log one event: the scalar's second fold is of prod == 1, and
/// log(1) == 0 leaves its clock unchanged.
struct AsyncBook : LaneBook {
  /// global_clock_loop's fold threshold (async.cpp).
  static constexpr double kFoldBelow = 0x1p-960;

  AsyncBook(const Graph& g, NodeId source, const TrialOptions& options,
            std::span<rng::Engine> engines_in, std::uint64_t cap_in)
      : LaneBook(g, source, options, engines_in, cap_in),
        events(kLogDepth * kLaneWidth),
        rate(static_cast<double>(g.num_nodes())) {}

  /// Folds lane l's first `len[l]` logged events into its clock.
  void replay(std::size_t l) noexcept {
    for (std::uint64_t e = 0; e < len[l]; ++e) {
      now[l] -= std::log(events[e * kLaneWidth + l]) / rate;
    }
    len[l] = 0;
  }

  /// Fills lane l from the queue; trials complete at time 0 retire at once.
  void refill(std::size_t l) {
    while (start(l, tick)) {
      prod[l] = 1.0;
      len[l] = 0;
      now[l] = 0.0;
      if (count[l] < n) return;
      retire_lane(l);
    }
  }

  /// The scalar loop's exit: replay the log, take the final fold.
  void retire_lane(std::size_t l) {
    replay(l);
    now[l] -= std::log(prod[l]) / rate;
    retire(l, now[l], tick - start_tick[l]);
  }

  /// Retires and refills the lanes whose trial completed or reached the
  /// cap at `tick`; recomputes the earliest cap tick of the live lanes.
  void settle() {
    for (std::size_t l = 0; l < kLaneWidth; ++l) {
      if (trial[l] == kIdle) continue;
      if (count[l] < n && tick - start_tick[l] < cap) continue;
      retire_lane(l);
      refill(l);
    }
    deadline = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t l = 0; l < kLaneWidth; ++l) {
      if (trial[l] == kIdle) continue;
      const std::uint64_t room = std::numeric_limits<std::uint64_t>::max() - start_tick[l];
      deadline = std::min(deadline, start_tick[l] + std::min(cap, room));
    }
  }

  std::vector<double> events;  // logged prods: entry e of lane l at e * kLaneWidth + l
  const double rate;
  alignas(64) double prod[kLaneWidth] = {};
  alignas(64) std::uint64_t len[kLaneWidth] = {};
  std::array<double, kLaneWidth> now{};
  std::uint64_t tick = 0;
  std::uint64_t deadline = 0;  // the tick at which the next live lane hits its cap
};

RUMOR_LANES_INLINE __m512i lane_index() { return _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0); }

/// Where node x's bit sits for each lane: the interleaved word index
/// (x >> 6) * kLaneWidth + lane, and the bit within it.
RUMOR_LANES_INLINE __m512i bit_word(__m512i x, __m512i lane) {
  return _mm512_add_epi64(_mm512_slli_epi64(_mm512_srli_epi64(x, 6), 3), lane);
}
RUMOR_LANES_INLINE __m512i bit_mask(__m512i x) {
  return _mm512_sllv_epi64(_mm512_set1_epi64(1), _mm512_and_si512(x, _mm512_set1_epi64(63)));
}

/// Sets node x's bit in each lane of `mask`; lanes own disjoint words, so
/// the gather-or-scatter cannot collide.
RUMOR_LANES_INLINE void set_bits(std::uint64_t* bits, __mmask8 mask, __m512i word, __m512i bit) {
  const __m512i old = _mm512_mask_i64gather_epi64(_mm512_setzero_si512(), mask, word, bits, 8);
  _mm512_mask_i64scatter_epi64(bits, mask, word, _mm512_or_si512(old, bit), 8);
}

/// One round for every lane at once. All lanes scan node v together, so
/// v's degree and row are lane-invariant: per node, one vector draw, one
/// gather of the contacted neighbors and one gather of their membership
/// words. Caller-side (pull) informs collect in a register word per
/// 64-node chunk; callee-side (push) informs scatter into the pending
/// bitsets only when some lane has one. Each lane draws exactly what
/// run_sync's round draws for its trial: one bounded draw per node of
/// positive degree, in node order.
template <Mode M, ScanKind K>
RUMOR_LANES void sync_round(const Graph& g, SyncBook& book) {
  const NodeId n = book.n;
  const __m512i lane = lane_index();
  const __m512i one = _mm512_set1_epi64(1);
  const std::uint32_t regular_degree = K == ScanKind::kRegular ? g.degree(0) : 0;
  const NodeId* row = K == ScanKind::kRegular ? g.neighbors(0).data() : nullptr;
  const std::uint64_t* const informed = book.informed.data();
  std::uint64_t* const pending = book.pending.data();

  Xoshiro8 st = load_states(book.state);
  for (NodeId base = 0; base < n; base += 64) {
    const std::size_t chunk = static_cast<std::size_t>(base >> 6) * kLaneWidth;
    __m512i callers = _mm512_loadu_si512(informed + chunk);
    __m512i pulled = _mm512_setzero_si512();
    __m512i kbit = one;
    const NodeId limit = n - base < 64 ? n - base : 64;
    for (NodeId k = 0; k < limit;
         ++k, callers = _mm512_srli_epi64(callers, 1), kbit = _mm512_slli_epi64(kbit, 1)) {
      const NodeId* nbrs;
      std::uint32_t deg;
      if constexpr (K == ScanKind::kRegular) {
        nbrs = row;
        deg = regular_degree;
        row += regular_degree;
      } else {
        const auto slice = g.neighbors(base + k);
        deg = static_cast<std::uint32_t>(slice.size());
        if (deg == 0) continue;
        nbrs = slice.data();
      }
      const __m512i idx = bounded(st, next(st), _mm512_set1_epi64(deg), 0xFF);
      const __m512i w = _mm512_cvtepu32_epi64(_mm512_i64gather_epi32(idx, nbrs, 4));
      const __m512i word = bit_word(w, lane);
      const __m512i bit = bit_mask(w);
      const __mmask8 w_in =
          _mm512_test_epi64_mask(_mm512_i64gather_epi64(word, informed, 8), bit);
      const __mmask8 v_in = _mm512_test_epi64_mask(callers, one);
      if constexpr (M != Mode::kPull) {
        const auto push = static_cast<__mmask8>(v_in & ~w_in);
        if (push != 0) set_bits(pending, push, word, bit);
      }
      if constexpr (M != Mode::kPush) {
        const auto pull = static_cast<__mmask8>(w_in & ~v_in);
        pulled = _mm512_mask_or_epi64(pulled, pull, pulled, kbit);
      }
    }
    _mm512_storeu_si512(pending + chunk,
                        _mm512_or_si512(_mm512_loadu_si512(pending + chunk), pulled));
  }
  store_states(st, book.state);
}

/// The global-clock tick loop for every lane at once, until every trial
/// has run. Per tick each lane makes global_clock_loop's draws — the clock
/// uniform, the caller uniform_below(n), and (for a caller of positive
/// degree) the callee draw — and the inform rule reads the lane's bitset.
/// Informs and folds log the lane's clock product (AsyncBook); lane
/// retirement and refill run in AsyncBook::settle between ticks.
template <Mode M, ScanKind K>
RUMOR_LANES void async_ticks(const Graph& g, AsyncBook& book) {
  const NodeId n = book.n;
  const Graph::Csr csr = g.csr();
  const __m512i lane = lane_index();
  const __m512i one = _mm512_set1_epi64(1);
  const __m512i nodes = _mm512_set1_epi64(n);
  const __m512i depth = _mm512_set1_epi64(static_cast<long long>(kLogDepth));
  const __m512i degree = _mm512_set1_epi64(K == ScanKind::kRegular ? g.degree(0) : 0);
  const __m512d unit = _mm512_set1_pd(1.0);
  const __m512d fold_below = _mm512_set1_pd(AsyncBook::kFoldBelow);
  std::uint64_t* const bits = book.informed.data();
  double* const events = book.events.data();

  Xoshiro8 st = load_states(book.state);
  __m512d prod = _mm512_load_pd(book.prod);
  __m512i len = _mm512_load_si512(book.len);
  __m512i count = _mm512_load_si512(book.count);
  auto active = static_cast<__mmask8>(book.live());
  std::uint64_t tick = book.tick;
  std::uint64_t deadline = book.deadline;
  while (active != 0) {
    prod = _mm512_mul_pd(prod, open_low_uniform(next(st)));
    const __mmask8 fold = _mm512_cmp_pd_mask(prod, fold_below, _CMP_LT_OQ);
    const __m512i v = bounded(st, next(st), nodes, 0xFF);
    __m512i w;
    __mmask8 has = 0xFF;  // lanes whose caller has a neighbor
    if constexpr (K == ScanKind::kRegular) {
      const __m512i idx = bounded(st, next(st), degree, 0xFF);
      const __m512i at = _mm512_add_epi64(_mm512_mul_epu32(v, degree), idx);
      w = _mm512_cvtepu32_epi64(_mm512_i64gather_epi32(at, csr.neighbors, 4));
    } else {
      const __m512i v1 = _mm512_add_epi64(v, one);
      const __m512i begin = _mm512_cvtepu32_epi64(_mm512_i64gather_epi32(v, csr.offsets, 4));
      const __m512i end = _mm512_cvtepu32_epi64(_mm512_i64gather_epi32(v1, csr.offsets, 4));
      const __m512i deg = _mm512_sub_epi64(end, begin);
      has = _mm512_test_epi64_mask(deg, deg);
      const __m512i idx = bounded(st, next_masked(st, has), deg, has);
      w = _mm512_cvtepu32_epi64(_mm512_mask_i64gather_epi32(
          _mm256_setzero_si256(), has, _mm512_add_epi64(begin, idx), csr.neighbors, 4));
    }
    const __m512i v_word = bit_word(v, lane);
    const __m512i v_bit = bit_mask(v);
    const __m512i w_word = bit_word(w, lane);
    const __m512i w_bit = bit_mask(w);
    const __mmask8 v_in =
        _mm512_test_epi64_mask(_mm512_i64gather_epi64(v_word, bits, 8), v_bit);
    const __mmask8 w_in = _mm512_test_epi64_mask(
        _mm512_mask_i64gather_epi64(_mm512_setzero_si512(), has, w_word, bits, 8), w_bit);
    __mmask8 rule;
    if constexpr (M == Mode::kPush) {
      rule = static_cast<__mmask8>(v_in & ~w_in);
    } else if constexpr (M == Mode::kPull) {
      rule = static_cast<__mmask8>(w_in & ~v_in);
    } else {
      rule = static_cast<__mmask8>(v_in ^ w_in);
    }
    const auto inform = static_cast<__mmask8>(rule & has & active);
    const auto event = static_cast<__mmask8>((fold | inform) & active);
    __mmask8 done = 0;
    if (event != 0) {
      _mm512_mask_i64scatter_pd(events, event, _mm512_add_epi64(_mm512_slli_epi64(len, 3), lane),
                                prod, 8);
      len = _mm512_mask_add_epi64(len, event, len, one);
      if (inform != 0) {
        // The uninformed endpoint: the callee for lanes whose caller knows.
        set_bits(bits, inform, _mm512_mask_blend_epi64(v_in, v_word, w_word),
                 _mm512_mask_blend_epi64(v_in, v_bit, w_bit));
        count = _mm512_mask_add_epi64(count, inform, count, one);
        done = _mm512_mask_cmpeq_epu64_mask(inform, count, nodes);
      }
      const __mmask8 full = _mm512_mask_cmpeq_epu64_mask(event, len, depth);
      if (full != 0) {
        _mm512_store_si512(book.len, len);
        for (unsigned m = full; m != 0; m &= m - 1) {
          book.replay(static_cast<std::size_t>(std::countr_zero(m)));
        }
        len = _mm512_mask_mov_epi64(len, full, _mm512_setzero_si512());
      }
    }
    // Idle lanes reset too, so their products never sink into subnormals.
    prod = _mm512_mask_mov_pd(prod, static_cast<__mmask8>(fold | inform), unit);
    ++tick;
    if (done != 0 || tick == deadline) {
      store_states(st, book.state);
      _mm512_store_pd(book.prod, prod);
      _mm512_store_si512(book.len, len);
      _mm512_store_si512(book.count, count);
      book.tick = tick;
      book.settle();
      st = load_states(book.state);
      prod = _mm512_load_pd(book.prod);
      len = _mm512_load_si512(book.len);
      count = _mm512_load_si512(book.count);
      active = static_cast<__mmask8>(book.live());
      deadline = book.deadline;
    }
  }
}

template <class Body>
void with_mode(Mode mode, Body&& body) {
  switch (mode) {
    case Mode::kPush: return body.template operator()<Mode::kPush>();
    case Mode::kPull: return body.template operator()<Mode::kPull>();
    case Mode::kPushPull: break;
  }
  body.template operator()<Mode::kPushPull>();
}

void run_sync_lanes(const Graph& g, SyncBook& book, Mode mode) {
  for (std::size_t l = 0; l < kLaneWidth; ++l) book.refill(l);
  const bool regular = choose_scan(g, false) == ScanKind::kRegular;
  with_mode(mode, [&]<Mode M>() {
    while (book.live() != 0) {
      ++book.round;
      if (regular) {
        sync_round<M, ScanKind::kRegular>(g, book);
      } else {
        sync_round<M, ScanKind::kStatic>(g, book);
      }
      book.settle();
    }
  });
}

void run_async_lanes(const Graph& g, AsyncBook& book, Mode mode) {
  for (std::size_t l = 0; l < kLaneWidth; ++l) book.refill(l);
  book.settle();  // sets the first deadline
  const bool regular = choose_scan(g, false) == ScanKind::kRegular;
  with_mode(mode, [&]<Mode M>() {
    if (regular) {
      async_ticks<M, ScanKind::kRegular>(g, book);
    } else {
      async_ticks<M, ScanKind::kStatic>(g, book);
    }
  });
}

}  // namespace

#endif  // RUMOR_TRIAL_LANES

std::vector<TrialOutcome> run_trial_lanes(EngineKind kind, const Graph& g, NodeId source,
                                          std::span<rng::Engine> engines,
                                          const TrialOptions& options,
                                          const TrialExtras& extras) {
  if (!lanes_eligible(kind, options, extras)) {
    throw std::invalid_argument(std::string("run_trial_lanes: engine '") + engine_name(kind) +
                                "' with these options does not run on trial lanes");
  }
#ifdef RUMOR_TRIAL_LANES
  const NodeId n = g.num_nodes();
  if (kind == EngineKind::kSync) {
    SyncBook book(g, source, options, engines,
                  options.max_ticks != 0 ? options.max_ticks : default_round_cap(n));
    run_sync_lanes(g, book, options.mode);
    return std::move(book.out);
  }
  AsyncBook book(g, source, options, engines,
                 options.max_ticks != 0 ? options.max_ticks : default_step_cap(n));
  run_async_lanes(g, book, options.mode);
  return std::move(book.out);
#else
  (void)g;
  (void)source;
  (void)engines;
  return {};
#endif
}

}  // namespace rumor::core
