#include "bayesnet/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <stdexcept>

#include "core/contracts.hpp"
#include "core/tolerance.hpp"

namespace sysuq::bayesnet::kernels {

namespace {

constexpr double kUnitValue[1] = {1.0};
constexpr double kZeroValue[1] = {0.0};

// Row-major strides of a table (last dimension fastest → stride 1).
void own_strides(const std::size_t* cards, std::size_t rank,
                 std::size_t* strides) noexcept {
  std::size_t acc = 1;
  for (std::size_t i = rank; i-- > 0;) {
    strides[i] = acc;
    acc *= cards[i];
  }
}

// Maps each merged dimension onto the operand's stride (0 when the
// operand does not contain the variable). Returns the number of operand
// dimensions matched, which must equal the operand's rank.
std::size_t map_strides(const View& op, const VariableId* scope,
                        std::size_t rank, const std::size_t* op_strides,
                        std::size_t* out) noexcept {
  std::size_t pos = 0;
  for (std::size_t k = 0; k < rank; ++k) {
    if (pos < op.rank && op.scope[pos] == scope[k]) {
      out[k] = op_strides[pos];
      ++pos;
    } else {
      out[k] = 0;
    }
  }
  return pos;
}


Factor materialize(const View& v) {
  return Factor(std::vector<VariableId>(v.scope, v.scope + v.rank),
                std::vector<std::size_t>(v.cards, v.cards + v.rank),
                std::vector<double>(v.values, v.values + v.size));
}

// The one evidence reduction. `state_of(v)` is scope member v's observed
// state, if any. One walk over the scope places the first consistent
// cell at `base` and lists the open members, each read at its stride in
// `f`; `make(scope, cards, rank, size)` returns where the result's values
// go, and `walk` copies the consistent cells there. Returns false, with
// `make` uncalled, when no member is observed.
template <class StateOf, class Make>
bool reduce_by(const View& f, StateOf&& state_of, Make&& make) {
  SYSUQ_EXPECT(f.rank <= kMaxRank, "kernels::reduce: rank exceeds kMaxRank");
  VariableId scope[kMaxRank];
  std::size_t cards[kMaxRank], strides[kMaxRank];
  std::size_t rank = 0, size = 1, base = 0, stride = f.size;
  for (std::size_t d = 0; d < f.rank; ++d) {
    stride /= f.cards[d];
    const std::optional<std::size_t> state = state_of(f.scope[d]);
    if (!state) {
      scope[rank] = f.scope[d];
      cards[rank] = f.cards[d];
      strides[rank++] = stride;
      size *= f.cards[d];
    } else if (*state < f.cards[d]) {
      base += *state * stride;
    } else {  // a hard throw: compiled out, it would read past the table
      throw std::out_of_range("kernels::reduce: observed state past its cardinality");
    }
  }
  if (rank == f.rank) return false;
  double* out = make(scope, cards, rank, size);
  walk(cards, strides, rank, base,
       [&](std::size_t x, std::size_t j) { out[x] = f.values[j]; });
  return true;
}

// reduce_by's lookups: an evidence map, or one observation.
auto in_evidence(const Evidence& evidence) {
  return [&evidence](VariableId v) -> std::optional<std::size_t> {
    const auto it = evidence.find(v);
    if (it == evidence.end()) return std::nullopt;
    return it->second;
  };
}

auto one_observation(VariableId v, std::size_t state) {
  return [=](VariableId u) { return u == v ? std::optional(state) : std::nullopt; };
}

// reduce_by's outputs: a table in `arena`, or the vectors of an owning
// Factor.
auto into_arena(Arena& arena, Table& t) {
  return [&](const VariableId* scope, const std::size_t* cards, std::size_t rank,
             std::size_t) {
    t = make_table(scope, cards, rank, arena);
    return t.values;
  };
}

struct Owned {
  std::vector<VariableId> scope;
  std::vector<std::size_t> cards;
  std::vector<double> values;

  double* operator()(const VariableId* s, const std::size_t* c, std::size_t rank,
                     std::size_t size) {
    scope.assign(s, s + rank);
    cards.assign(c, c + rank);
    values.resize(size);
    return values.data();
  }
  Factor factor() && {
    return Factor(std::move(scope), std::move(cards), std::move(values));
  }
};

// Operands a fused step multiplies directly. A larger bucket first folds
// its leading operands with product(), in order.
constexpr std::size_t kStepOperands = 8;

// The pass of multiply_sum_out. `sv[j]` is operand j's stride along the
// eliminated variable (cv states), `ost[d][j]` along output dimension d.
// K fixes the operand count so the common small buckets unroll; K = 0
// reads the runtime count k.
template <std::size_t K>
void multiply_sum_loop(const double* const* vals, const std::size_t* sv,
                       const std::size_t (*ost)[kStepOperands],
                       const std::size_t* ocards, std::size_t orank,
                       std::size_t cv, std::size_t k, double* out,
                       std::size_t out_size) {
  const std::size_t n = K == 0 ? k : K;
  // The innermost output dimension is a plain loop; an odometer walks
  // the outer ones.
  const std::size_t outer = orank == 0 ? 0 : orank - 1;
  const std::size_t cin = orank == 0 ? 1 : ocards[outer];
  std::size_t si[kStepOperands] = {};
  if (orank != 0) std::copy(ost[outer], ost[outer] + n, si);
  std::size_t off[kStepOperands] = {};
  std::size_t idx[kMaxRank];
  std::fill(idx, idx + outer, std::size_t{0});
  const std::size_t blocks = out_size / cin;
  for (std::size_t blk = 0;;) {
    for (std::size_t c = 0; c < cin; ++c) {
      double sum = 0.0;
      for (std::size_t s = 0; s < cv; ++s) {
        double p = vals[0][off[0] + c * si[0] + s * sv[0]];
        for (std::size_t j = 1; j < n; ++j) p *= vals[j][off[j] + c * si[j] + s * sv[j]];
        sum += p;
      }
      out[c] = sum;
    }
    out += cin;
    if (++blk == blocks) break;
    for (std::size_t d = outer; d-- > 0;) {
      for (std::size_t j = 0; j < n; ++j) off[j] += ost[d][j];
      if (++idx[d] < ocards[d]) break;
      for (std::size_t j = 0; j < n; ++j) off[j] -= ost[d][j] * ocards[d];
      idx[d] = 0;
    }
  }
}

// One bucket-elimination step: sums `v` out of the product of
// `ops[0..k)` in a single pass, into a fresh arena table over the merged
// scope minus `v`. Each output cell multiplies the operands left to
// right and adds v's states in index order, starting from 0.0: the
// arithmetic of a left-to-right product() fold followed by
// marginalize_keep_into, bit for bit, without the intermediate table. The
// checks are folded into few contracts: this runs once per step of
// every VE query.
Table multiply_sum_out(const View* ops, std::size_t k, VariableId v,
                       Arena& arena) {
  // The bucket's merged scope, ping-ponged between two buffers.
  VariableId sbuf[2][2 * kMaxRank];
  std::size_t cbuf[2][2 * kMaxRank];
  std::size_t rank = ops[0].rank;
  bool fits = rank <= kMaxRank;
  std::size_t cur = 0;
  if (fits) {
    std::copy(ops[0].scope, ops[0].scope + rank, sbuf[0]);
    std::copy(ops[0].cards, ops[0].cards + rank, cbuf[0]);
  }
  for (std::size_t j = 1; fits && j < k; ++j) {
    fits = ops[j].rank <= kMaxRank;
    if (!fits) break;
    const View acc{sbuf[cur], cbuf[cur], nullptr, rank, 0};
    rank = merge_scopes(acc, ops[j], sbuf[1 - cur], cbuf[1 - cur]);
    cur = 1 - cur;
    fits = rank <= kMaxRank;
  }
  SYSUQ_EXPECT(fits, "kernels::eliminate: step rank exceeds kMaxRank");
  const VariableId* scope = sbuf[cur];
  const std::size_t* cards = cbuf[cur];
  std::size_t pv = rank;
  std::size_t size = 1;
  bool sized = true;
  for (std::size_t d = 0; d < rank; ++d) {
    if (scope[d] == v) pv = d;
    sized = sized && cards[d] != 0 && !mul_overflows(size, cards[d]);
    size *= cards[d];
  }
  SYSUQ_EXPECT(pv < rank && sized,
               "kernels::eliminate: eliminated variable not in the step "
               "scope, or step table size overflows");

  // The output: the merged dimensions minus v's, pv.
  const std::size_t orank = rank - 1;
  const std::size_t cv = cards[pv];
  Table out;
  out.rank = orank;
  out.size = size / cv;
  out.scope = arena.alloc<VariableId>(orank);
  out.cards = arena.alloc<std::size_t>(orank);
  out.values = arena.alloc<double>(out.size);
  std::copy(scope, scope + pv, out.scope);
  std::copy(scope + pv + 1, scope + rank, out.scope + pv);
  std::copy(cards, cards + pv, out.cards);
  std::copy(cards + pv + 1, cards + rank, out.cards + pv);

  // Per operand: its stride along v and along each output dimension (0
  // when absent), from one walk down both sorted scopes, last dimension
  // first (one loop instead of own_strides + map_strides: this is ~10%
  // of a relay step).
  const double* vals[kStepOperands];
  std::size_t sv[kStepOperands];
  std::size_t ost[kMaxRank][kStepOperands];
  for (std::size_t j = 0; j < k; ++j) {
    const View& op = ops[j];
    vals[j] = op.values;
    std::size_t stride = 1;
    std::size_t i = op.rank;
    for (std::size_t d = rank; d-- > 0;) {
      std::size_t st = 0;
      if (i > 0 && op.scope[i - 1] == scope[d]) {
        st = stride;
        stride *= op.cards[--i];
      }
      if (d == pv) {
        sv[j] = st;
      } else {
        ost[d < pv ? d : d - 1][j] = st;
      }
    }
  }
  switch (k) {
    case 1: multiply_sum_loop<1>(vals, sv, ost, out.cards, orank, cv, k, out.values, out.size); break;
    case 2: multiply_sum_loop<2>(vals, sv, ost, out.cards, orank, cv, k, out.values, out.size); break;
    case 3: multiply_sum_loop<3>(vals, sv, ost, out.cards, orank, cv, k, out.values, out.size); break;
    default: multiply_sum_loop<0>(vals, sv, ost, out.cards, orank, cv, k, out.values, out.size); break;
  }
  return out;
}

}  // namespace

// Bucket elimination (Dechter 1996). Each view waits in the bucket of
// its earliest-eliminated variable, so a step multiplies exactly its
// bucket and files its message the same way;
// views with nothing left to eliminate wait in a final bucket for the
// closing product. Buckets are singly linked lists appended at the tail:
// inputs are filed by index before any message, messages as they are
// made, so every bucket meets its factors in the order a scan of the
// live views would. Every message, and every pairwise product of the
// closing fold, whose total leaves [kRescaleFloor, 1/kRescaleFloor] is
// renormalized and the log of the factored-out total accumulated; an
// exactly-zero table short-circuits as impossible (zeros only propagate
// outward in a product of non-negative factors).
ScaledTable eliminate(std::span<const View> inputs,
                      std::span<const VariableId> order, Arena& arena) {
  ScaledTable out;
  const auto impossible = [&] {
    out.table = View{nullptr, nullptr, kZeroValue, 0, 1};
    out.log_scale = -std::numeric_limits<double>::infinity();
    return out;
  };
  const auto rescale_table = [&](Table& t) -> bool {
    const double mass = total(t.values, t.size);
    if (!(mass > 0.0)) return false;
    if (mass < tolerance::kRescaleFloor || mass > 1.0 / tolerance::kRescaleFloor) {
      normalize_by(t.values, t.size, mass);
      out.log_scale += std::log(mass);
    }
    return true;
  };

  // The step that eliminates each variable: its first entry in `order`.
  constexpr std::size_t kNone = SIZE_MAX;
  const std::size_t steps = order.size();
  std::size_t ids = 0;
  for (const VariableId v : order) ids = std::max<std::size_t>(ids, v + 1);
  std::size_t* step_of = arena.alloc<std::size_t>(ids);
  std::fill(step_of, step_of + ids, kNone);
  for (std::size_t i = steps; i-- > 0;) step_of[order[i]] = i;

  // Bucket b < steps belongs to step b; bucket `steps` is the final one.
  const std::size_t cap = inputs.size() + steps;
  View* items = arena.alloc<View>(cap);
  std::size_t* next = arena.alloc<std::size_t>(cap);
  std::size_t* head = arena.alloc<std::size_t>(steps + 1);
  std::size_t* tail = arena.alloc<std::size_t>(steps + 1);
  std::fill(head, head + steps + 1, kNone);
  std::size_t filed = 0;
  const auto file = [&](const View& view) {
    std::size_t b = steps;
    for (std::size_t d = 0; d < view.rank; ++d) {
      if (view.scope[d] < ids) b = std::min(b, step_of[view.scope[d]]);
    }
    items[filed] = view;
    next[filed] = kNone;
    (head[b] == kNone ? head[b] : next[tail[b]]) = filed;
    tail[b] = filed++;
  };
  for (const View& view : inputs) file(view);

  for (std::size_t i = 0; i < steps; ++i) {
    // Empty for a repeated entry or a variable no factor holds.
    std::size_t it = head[i];
    if (it == kNone) continue;
    std::size_t n = 0;
    for (std::size_t j = it; j != kNone; j = next[j]) ++n;
    View ops[kStepOperands];
    std::size_t k = 0;
    if (n > kStepOperands) {
      View acc = items[it];
      it = next[it];
      for (std::size_t j = 1; j + kStepOperands <= n; ++j, it = next[it])
        acc = product(acc, items[it], arena).view();
      ops[k++] = acc;
    }
    for (; it != kNone; it = next[it]) ops[k++] = items[it];
    Table m = multiply_sum_out(ops, k, order[i], arena);
    if (!rescale_table(m)) return impossible();
    file(m.view());
  }

  std::size_t it = head[steps];
  if (it == kNone) {
    out.table = unit_view();
    return out;
  }
  View acc = items[it];
  for (it = next[it]; it != kNone; it = next[it]) {
    Table t = product(acc, items[it], arena);
    if (!rescale_table(t)) return impossible();
    acc = t.view();
  }
  out.table = acc;
  return out;
}

bool mul_overflows(std::size_t a, std::size_t b) noexcept {
  return b != 0 && a > SIZE_MAX / b;
}

std::size_t checked_table_size(const std::size_t* cards, std::size_t rank,
                               const char* what) {
  // Hard throws, not contracts: compiled out, a wrapped size would pass
  // for a small table.
  std::size_t size = 1;
  for (std::size_t i = 0; i < rank; ++i) {
    if (cards[i] == 0 || mul_overflows(size, cards[i])) throw std::invalid_argument(what);
    size *= cards[i];
  }
  return size;
}

bool View::contains(VariableId v) const noexcept {
  return std::binary_search(scope, scope + rank, v);
}

View view_of(const Factor& f) {
  return View{f.scope().data(), f.cardinalities().data(), f.values().data(),
              f.scope().size(), f.values().size()};
}

View unit_view() noexcept { return View{nullptr, nullptr, kUnitValue, 0, 1}; }

Table make_table(const VariableId* scope, const std::size_t* cards,
                 std::size_t rank, Arena& arena) {
  SYSUQ_EXPECT(rank <= kMaxRank, "kernels::make_table: rank exceeds kMaxRank");
  Table t;
  t.rank = rank;
  t.size = checked_table_size(cards, rank, "kernels::make_table: table size");
  t.scope = arena.alloc<VariableId>(rank);
  t.cards = arena.alloc<std::size_t>(rank);
  t.values = arena.alloc<double>(t.size);
  std::copy(scope, scope + rank, t.scope);
  std::copy(cards, cards + rank, t.cards);
  return t;
}

std::size_t merge_scopes(const View& a, const View& b, VariableId* scope,
                         std::size_t* cards) {
  std::size_t i = 0, j = 0, k = 0;
  while (i < a.rank || j < b.rank) {
    if (j == b.rank || (i < a.rank && a.scope[i] < b.scope[j])) {
      scope[k] = a.scope[i];
      cards[k] = a.cards[i];
      ++i;
    } else if (i == a.rank || b.scope[j] < a.scope[i]) {
      scope[k] = b.scope[j];
      cards[k] = b.cards[j];
      ++j;
    } else {
      // A hard throw: compiled out, a mismatch would size the merged
      // table by one operand and index past the other.
      if (a.cards[i] != b.cards[j])
        throw std::invalid_argument(
            "kernels::merge_scopes: cardinality mismatch on shared variable");
      scope[k] = a.scope[i];
      cards[k] = a.cards[i];
      ++i;
      ++j;
    }
    ++k;
  }
  return k;
}

// Because scopes are sorted, the merged inner (fastest) dimension has
// stride 1 in each operand that contains it and 0 otherwise, so every
// inner loop is a contiguous product or a broadcast.
void product_into(const View& a, const View& b, const VariableId* scope,
                  const std::size_t* cards, std::size_t rank, double* out) {
  SYSUQ_EXPECT(a.rank <= rank && b.rank <= rank,
               "kernels::product_into: operand rank exceeds merged rank");
  SYSUQ_EXPECT(rank <= kMaxRank, "factor kernels: rank exceeds kMaxRank");
  if (rank == 0) {
    out[0] = a.values[0] * b.values[0];
    return;
  }
  const char* what =
      "kernels::product_into: operand scopes must be subsets of the merged "
      "scope";
  std::size_t oa[kMaxRank], ob[kMaxRank];
  own_strides(a.cards, a.rank, oa);
  own_strides(b.cards, b.rank, ob);
  // Built outside the contract: Mode::kOff evaluates no condition.
  std::size_t sa[kMaxRank], sb[kMaxRank];
  const std::size_t a_matched = map_strides(a, scope, rank, oa, sa);
  const std::size_t b_matched = map_strides(b, scope, rank, ob, sb);
  SYSUQ_EXPECT(a_matched == a.rank && b_matched == b.rank, what);

  const std::size_t total_cells = checked_table_size(cards, rank, what);
  const std::size_t inner = rank - 1;
  const std::size_t cin = cards[inner];
  const bool a_in = sa[inner] != 0;  // stride is 1 when present (sorted)
  const bool b_in = sb[inner] != 0;
  SYSUQ_EXPECT(a_in || b_in, what);

  std::size_t idx[kMaxRank];
  std::fill(idx, idx + rank, std::size_t{0});
  const double* av = a.values;
  const double* bv = b.values;
  std::size_t ia = 0, ib = 0;
  const std::size_t blocks = total_cells / cin;
  for (std::size_t blk = 0;;) {
    const double* pa = av + ia;
    const double* pb = bv + ib;
    if (a_in && b_in) {
      for (std::size_t j = 0; j < cin; ++j) out[j] = pa[j] * pb[j];
    } else if (a_in) {
      const double vb = *pb;
      for (std::size_t j = 0; j < cin; ++j) out[j] = pa[j] * vb;
    } else {
      const double va = *pa;
      for (std::size_t j = 0; j < cin; ++j) out[j] = va * pb[j];
    }
    out += cin;
    if (++blk == blocks) break;
    for (std::size_t k = inner; k-- > 0;) {
      ia += sa[k];
      ib += sb[k];
      if (++idx[k] < cards[k]) break;
      ia -= sa[k] * cards[k];
      ib -= sb[k] * cards[k];
      idx[k] = 0;
    }
  }
}

Table product(const View& a, const View& b, Arena& arena) {
  SYSUQ_EXPECT(a.rank + b.rank <= 2 * kMaxRank,
               "kernels::product: combined rank exceeds kMaxRank");
  VariableId scope[2 * kMaxRank];
  std::size_t cards[2 * kMaxRank];
  const std::size_t rank = merge_scopes(a, b, scope, cards);
  SYSUQ_EXPECT(rank <= kMaxRank, "kernels::product: merged rank exceeds kMaxRank");
  Table t = make_table(scope, cards, rank, arena);
  product_into(a, b, t.scope, t.cards, rank, t.values);
  return t;
}

void marginalize_keep_into(const View& f, const VariableId* keep,
                           std::size_t nkeep, double* out) {
  SYSUQ_EXPECT(f.rank <= kMaxRank,
               "kernels::marginalize_keep_into: rank exceeds kMaxRank");
  // Kept flags + per-input-dimension output strides (0 for summed-out
  // dimensions), validated once: `keep` must be a sorted subset of the
  // scope.
  bool kept[kMaxRank];
  std::size_t pos = 0;
  for (std::size_t i = 0; i < f.rank; ++i) {
    if (pos < nkeep && f.scope[i] == keep[pos]) {
      kept[i] = true;
      ++pos;
    } else {
      kept[i] = false;
    }
  }
  SYSUQ_EXPECT(pos == nkeep,
               "kernels::marginalize_keep_into: keep must be a sorted subset "
               "of the scope");
  std::size_t out_stride[kMaxRank];
  std::size_t out_size = 1;
  for (std::size_t i = f.rank; i-- > 0;) {
    if (kept[i]) {
      out_stride[i] = out_size;
      out_size *= f.cards[i];
    } else {
      out_stride[i] = 0;
    }
  }
  std::fill(out, out + out_size, 0.0);
  if (f.rank == 0) {
    out[0] = f.values[0];
    return;
  }

  const std::size_t inner = f.rank - 1;
  const std::size_t cin = f.cards[inner];
  const bool inner_kept = kept[inner];
  std::size_t idx[kMaxRank];
  std::fill(idx, idx + f.rank, std::size_t{0});
  const double* v = f.values;
  std::size_t o = 0;
  const std::size_t blocks = f.size / cin;
  for (std::size_t blk = 0;;) {
    if (inner_kept) {
      double* po = out + o;
      for (std::size_t j = 0; j < cin; ++j) po[j] += v[j];
    } else {
      double s = 0.0;
      // sysuq-lint-allow(log-domain): a plain left fold on purpose; the bucket kernel must match the legacy scan bit for bit
      for (std::size_t j = 0; j < cin; ++j) s += v[j];
      out[o] += s;
    }
    v += cin;
    if (++blk == blocks) break;
    for (std::size_t k = inner; k-- > 0;) {
      o += out_stride[k];
      if (++idx[k] < f.cards[k]) break;
      o -= out_stride[k] * f.cards[k];
      idx[k] = 0;
    }
  }
}

View reduce(const View& f, const Evidence& evidence, Arena& arena) {
  Table t;
  return reduce_by(f, in_evidence(evidence), into_arena(arena, t)) ? t.view() : f;
}

Factor reduce(const View& f, const Evidence& evidence) {
  Owned out;
  return reduce_by(f, in_evidence(evidence), out) ? std::move(out).factor() : materialize(f);
}

Table reduce(const View& f, VariableId v, std::size_t state, Arena& arena) {
  Table t;
  if (!reduce_by(f, one_observation(v, state), into_arena(arena, t)))
    throw std::invalid_argument("kernels::reduce: variable not in scope");
  return t;
}

Factor reduce(const View& f, VariableId v, std::size_t state) {
  Owned out;
  if (!reduce_by(f, one_observation(v, state), out))
    throw std::invalid_argument("kernels::reduce: variable not in scope");
  return std::move(out).factor();
}

double total(const double* values, std::size_t n) noexcept {
  if (n <= 32) {
    double s = 0.0;
    for (std::size_t i = 0; i < n; ++i) s += values[i];
    return s;
  }
  const std::size_t h = n / 2;
  return total(values, h) + total(values + h, n - h);
}

void scale(double* values, std::size_t n, double s) noexcept {
  for (std::size_t i = 0; i < n; ++i) values[i] *= s;
}

void normalize_by(double* values, std::size_t n, double total) noexcept {
  if (const double inverse = 1.0 / total; std::isfinite(inverse)) {
    scale(values, n, inverse);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) values[i] /= total;
}

double ScaledTable::log_total() const noexcept {
  return log_scale + std::log(total(table.values, table.size));
}

double ScaledFactor::log_total() const {
  return log_scale + std::log(factor.total());
}

ScaledFactor eliminate_scaled(std::vector<View> factors,
                              const std::vector<VariableId>& order,
                              Arena& arena) {
  const ScaledTable out = eliminate(factors, order, arena);
  return ScaledFactor{materialize(out.table), out.log_scale};
}

Arena& thread_scratch() {
  static thread_local Arena arena;
  return arena;
}

}  // namespace sysuq::bayesnet::kernels
