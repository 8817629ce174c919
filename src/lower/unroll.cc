// Loop specialization: compile-time unrolling and loop-invariant code motion.
//
// The execution engines pay per-iteration dispatch, back-edge, and index-arithmetic
// cost on exactly the loops the schedules worked hardest to shape. This file removes
// that cost ahead of bytecode compilation and C emission:
//
//   * SpecializeLoops   — the engine-side pipeline (applied by the VM compiler and
//                         the C emitter):
//       1. fully unrolls *innermost* serial/unrolled loops whose constant extent is
//          <= LoopSpecializeOptions::unroll_limit, constant-folding the resulting
//          constant indices through Simplify;
//       2. hoists subexpressions invariant in the innermost loop into LetStmt
//          bindings computed once per outer iteration: integer index arithmetic
//          (the row offsets of a dense kernel, padding guards, the batch-offset adds
//          introduced by RebatchGraph), and scalar values built from loads, unary
//          math calls, casts and float arithmetic — a fused prologue such as a dense
//          kernel's `sigmoid(gates[k]) * c[k]`, which is invariant in the x tile;
//       3. binds a value subexpression that recurs within one iteration (an
//          unrolled tile reloads the same weight or recomputes the same prologue in
//          every copy) and recurring loop-var multiplies once per iteration.
//
// Bitwise identity with the unspecialized body holds by construction. Unrolling
// substitutes integer constants for the loop variable iteration-by-iteration in the
// original order (integer folding is exact, float folding uses the same double
// arithmetic as the engines). Moved expressions keep their operation order, and a
// LetStmt holds a float value as a double on every tier, exactly as the unmoved
// expression would have produced it. Integer arithmetic cannot trap (divisors are
// nonzero constants), so it moves anywhere. A value that reads memory moves only
// where the original evaluates it anyway with the same operands: the body always
// evaluates it (not in a Select or if_then_else arm, not in the right operand of
// And/Or, not under a predicated access), the loop runs at least once (constant
// extent > 0), and the body stores to none of the buffers it reads and calls no
// tensor intrinsic. So every value and every trap is produced exactly as before. tests/test_specialize.cc and the three-tier fuzzer
// (tests/test_fuzz_tir.cc) enforce this differentially under TVMCPP_VM_STRICT=1.
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/ir/functor.h"
#include "src/ir/intrin_table.h"
#include "src/ir/simplify.h"
#include "src/ir/substitute.h"
#include "src/lower/lower.h"

namespace tvmcpp {

namespace {

// Full expansion: one simplified copy of `body` per iteration value, in
// original order, the loop variable substituted by its constant.
Stmt ExpandConstLoop(const ForNode* n, int64_t min_v, int64_t extent) {
  std::vector<Stmt> unrolled;
  unrolled.reserve(static_cast<size_t>(extent));
  for (int64_t i = 0; i < extent; ++i) {
    VarMap vmap{{n->loop_var.get(), make_int(min_v + i)}};
    unrolled.push_back(Simplify(Substitute(n->body, vmap)));
  }
  return seq(std::move(unrolled));
}

// Number of primitive statements (stores, evaluates) in a subtree: the unroll size
// guard multiplies this by the extent to bound code growth.
int CountLeafStmts(const Stmt& s) {
  int count = 0;
  PostOrderVisitStmt(s, [&](const Stmt& st) {
    count += st->kind == StmtKind::kStore || st->kind == StmtKind::kEvaluate;
  });
  return count;
}

bool ContainsFor(const Stmt& s) {
  bool found = false;
  PostOrderVisitStmt(s, [&](const Stmt& st) { found |= st->kind == StmtKind::kFor; });
  return found;
}

bool ContainsAllocate(const Stmt& s) {
  bool found = false;
  PostOrderVisitStmt(s,
                     [&](const Stmt& st) { found |= st->kind == StmtKind::kAllocate; });
  return found;
}

// Fully unrolls innermost serial/unrolled loops with small constant extents,
// bottom-up so a nest of small loops (conv2d's 3x3 window) collapses entirely.
class InnerLoopUnroller : public StmtMutator {
 public:
  InnerLoopUnroller(int64_t limit, int* count) : limit_(limit), count_(count) {}

 protected:
  Stmt MutateFor(const ForNode* op, const Stmt& s) override {
    Stmt base = StmtMutator::MutateFor(op, s);
    const auto* n = static_cast<const ForNode*>(base.get());
    if (n->for_type != ForType::kSerial && n->for_type != ForType::kUnrolled) {
      return base;
    }
    int64_t extent, min_v;
    if (!is_const_int(n->extent, &extent) || !is_const_int(n->min, &min_v)) {
      return base;
    }
    if (extent <= 0 || extent > limit_) {
      return base;
    }
    // Only innermost loops: an inner loop that survived (too wide to unroll) keeps
    // this one rolled too, bounding total expansion to one small nest's body.
    if (ContainsFor(n->body) || ContainsAllocate(n->body)) {
      return base;
    }
    if (CountLeafStmts(n->body) * extent > kMaxUnrolledStmts) {
      return base;
    }
    ++*count_;
    return ExpandConstLoop(n, min_v, extent);
  }

 private:
  // With the CPU register tile (an ow tile inside rx inside ry), 32 statements
  // unroll ow x rx and keep ry rolled. A cap of 256 also unrolls ry: on the model
  // zoo that is 2.4x the C and 2x the VM instructions, and nearly twice the C
  // compile time, for a ~15% faster DCGAN and no gain elsewhere.
  static constexpr int kMaxUnrolledStmts = 32;
  int64_t limit_;
  int* count_;
};

// True when `e` is built only from integer Vars, IntImms, and exact integer
// arithmetic/comparisons — the class of expressions whose value is
// position-independent and can be hoisted without changing any result or trap.
// Comparisons and And/Or qualify because both engines evaluate integer boolean
// operands eagerly (no short-circuit over side effects exists here: the subtree is
// load- and call-free by construction). Hoisting them moves a whole padding guard
// (e.g. conv2d's `0 <= ih && ih < H`) out of the innermost loop.
bool PureIntArith(const Expr& e) {
  switch (e->kind) {
    case ExprKind::kIntImm:
      return true;
    case ExprKind::kVar:
      return !e->dtype.is_handle();
    case ExprKind::kNot:
      return PureIntArith(static_cast<const NotNode*>(e.get())->a);
    case ExprKind::kDiv:
    case ExprKind::kMod: {
      // Division can trap: moving one ahead of a (possibly zero-trip) loop must
      // not introduce a fault the original program never executed, so only
      // nonzero-constant divisors (the only kind lowering emits) qualify.
      if (!(e->dtype.is_int() || e->dtype.is_uint()) || e->dtype.lanes() != 1) {
        return false;
      }
      const auto* b = static_cast<const BinaryNode*>(e.get());
      int64_t divisor;
      return is_const_int(b->b, &divisor) && divisor != 0 && PureIntArith(b->a);
    }
    case ExprKind::kAdd:
    case ExprKind::kSub:
    case ExprKind::kMul:
    case ExprKind::kMin:
    case ExprKind::kMax:
    case ExprKind::kEQ:
    case ExprKind::kNE:
    case ExprKind::kLT:
    case ExprKind::kLE:
    case ExprKind::kGT:
    case ExprKind::kGE:
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      if (!(e->dtype.is_int() || e->dtype.is_uint()) || e->dtype.lanes() != 1) {
        return false;
      }
      const auto* b = static_cast<const BinaryNode*>(e.get());
      return PureIntArith(b->a) && PureIntArith(b->b);
    }
    default:
      return false;
  }
}

// True when `e` is a scalar value built from loads (unpredicated), unary math calls,
// casts, immediates, non-handle Vars and any arithmetic, comparison or logical
// operator, integer or float. Unlike PureIntArith such a value reads memory and can
// trap (a bad load index), so it only moves under the conditions in MovableValue.
bool PureValue(const Expr& e) {
  if (e->dtype.lanes() != 1) {
    return false;
  }
  switch (e->kind) {
    case ExprKind::kIntImm:
    case ExprKind::kFloatImm:
      return true;
    case ExprKind::kVar:
      return !e->dtype.is_handle();
    case ExprKind::kCast:
      return PureValue(static_cast<const CastNode*>(e.get())->value);
    case ExprKind::kNot:
      return PureValue(static_cast<const NotNode*>(e.get())->a);
    case ExprKind::kLoad: {
      const auto* n = static_cast<const LoadNode*>(e.get());
      return n->predicate == nullptr && PureValue(n->index);
    }
    case ExprKind::kCall: {
      const auto* n = static_cast<const CallNode*>(e.get());
      UnaryMathFn fn;
      return n->args.size() == 1 && LookupUnaryMathFn(n->name, &fn) &&
             PureValue(n->args[0]);
    }
    default: {
      const auto* b = dynamic_cast<const BinaryNode*>(e.get());
      return b != nullptr && PureValue(b->a) && PureValue(b->b);
    }
  }
}

bool UsesAnyVar(const Expr& e, const std::unordered_set<const VarNode*>& vars) {
  bool uses = false;
  PostOrderVisit(e, [&](const Expr& x) {
    uses |= x->kind == ExprKind::kVar &&
            vars.count(static_cast<const VarNode*>(x.get())) > 0;
  });
  return uses;
}

bool UsesSomeVar(const Expr& e) {
  bool uses = false;
  PostOrderVisit(e, [&](const Expr& x) { uses |= x->kind == ExprKind::kVar; });
  return uses;
}

bool ReadsAnyBuffer(const Expr& e, const std::unordered_set<const VarNode*>& bufs) {
  bool reads = false;
  PostOrderVisit(e, [&](const Expr& x) {
    reads |= x->kind == ExprKind::kLoad &&
             bufs.count(static_cast<const LoadNode*>(x.get())->buffer_var.get()) > 0;
  });
  return reads;
}

void AppendDType(DataType t, std::string* out) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%d.%d.%d", static_cast<int>(t.code()), t.bits(),
                t.lanes());
  *out += buf;
}

// Structural key for candidate matching. The printed form alone is ambiguous:
// two distinct VarNodes may share a name, and substituting one for the other would
// silently miscompile — so variables and buffers are keyed by node identity, and
// float immediates by their exact bits. Only the node kinds PureValue admits need
// compact encodings; anything else falls back to an identity-tagged form.
void AppendExprKey(const Expr& e, std::string* out) {
  char buf[32];
  switch (e->kind) {
    case ExprKind::kIntImm:
      std::snprintf(buf, sizeof(buf), "i%lld",
                    static_cast<long long>(static_cast<const IntImmNode*>(e.get())->value));
      *out += buf;
      return;
    case ExprKind::kFloatImm: {
      const double v = static_cast<const FloatImmNode*>(e.get())->value;
      uint64_t bits;
      std::memcpy(&bits, &v, sizeof(bits));
      std::snprintf(buf, sizeof(buf), "f%llx", static_cast<unsigned long long>(bits));
      *out += buf;
      return;
    }
    case ExprKind::kVar:
      std::snprintf(buf, sizeof(buf), "v%p", static_cast<const void*>(e.get()));
      *out += buf;
      return;
    case ExprKind::kNot:
      *out += "!(";
      AppendExprKey(static_cast<const NotNode*>(e.get())->a, out);
      *out += ')';
      return;
    case ExprKind::kCast:
      *out += 'c';
      AppendDType(e->dtype, out);
      *out += '(';
      AppendExprKey(static_cast<const CastNode*>(e.get())->value, out);
      *out += ')';
      return;
    case ExprKind::kLoad: {
      const auto* n = static_cast<const LoadNode*>(e.get());
      if (n->predicate != nullptr) {
        break;
      }
      std::snprintf(buf, sizeof(buf), "L%p:", static_cast<const void*>(n->buffer_var.get()));
      *out += buf;
      AppendDType(e->dtype, out);
      *out += '(';
      AppendExprKey(n->index, out);
      *out += ')';
      return;
    }
    case ExprKind::kCall: {
      const auto* n = static_cast<const CallNode*>(e.get());
      *out += n->name;
      *out += '(';
      for (const Expr& arg : n->args) {
        AppendExprKey(arg, out);
        *out += ',';
      }
      *out += ')';
      return;
    }
    default:
      break;
  }
  if (const auto* b = dynamic_cast<const BinaryNode*>(e.get())) {
    std::snprintf(buf, sizeof(buf), "b%d(", static_cast<int>(e->kind));
    *out += buf;
    AppendExprKey(b->a, out);
    *out += ',';
    AppendExprKey(b->b, out);
    *out += ')';
    return;
  }
  std::snprintf(buf, sizeof(buf), "?%p", static_cast<const void*>(e.get()));
  *out += buf;
}

std::string ExprKey(const Expr& e) {
  std::string key;
  key.reserve(64);
  AppendExprKey(e, &key);
  return key;
}

// Calls `fn(root, always)` on every expression rooted in `s` (without descending
// into nested loops — the caller walks those). `always` is false for a root the
// body evaluates only on some paths: inside an IfThenElse branch, and the index and
// value of a predicated store.
void ForEachRootExpr(const Stmt& s, bool always,
                     const std::function<void(const Expr&, bool)>& fn) {
  if (s == nullptr) {
    return;
  }
  switch (s->kind) {
    case StmtKind::kLetStmt: {
      const auto* n = static_cast<const LetStmtNode*>(s.get());
      fn(n->value, always);
      ForEachRootExpr(n->body, always, fn);
      break;
    }
    case StmtKind::kAttrStmt:
      ForEachRootExpr(static_cast<const AttrStmtNode*>(s.get())->body, always, fn);
      break;
    case StmtKind::kAssert: {
      const auto* n = static_cast<const AssertStmtNode*>(s.get());
      fn(n->condition, always);
      ForEachRootExpr(n->body, always, fn);
      break;
    }
    case StmtKind::kStore: {
      const auto* n = static_cast<const StoreNode*>(s.get());
      const bool live = always && n->predicate == nullptr;
      fn(n->value, live);
      fn(n->index, live);
      if (n->predicate != nullptr) {
        fn(n->predicate, always);
      }
      break;
    }
    case StmtKind::kIfThenElse: {
      const auto* n = static_cast<const IfThenElseNode*>(s.get());
      fn(n->condition, always);
      ForEachRootExpr(n->then_case, false, fn);
      ForEachRootExpr(n->else_case, false, fn);
      break;
    }
    case StmtKind::kSeq:
      for (const Stmt& st : static_cast<const SeqStmtNode*>(s.get())->seq) {
        ForEachRootExpr(st, always, fn);
      }
      break;
    case StmtKind::kEvaluate:
      fn(static_cast<const EvaluateNode*>(s.get())->value, always);
      break;
    default:
      break;  // For/Allocate cannot appear in an innermost-loop body
  }
}

// Visits every subexpression of a loop body top-down as `visit(e, always)`, where
// `always` says whether the body evaluates `e` on every path: a Select or
// if_then_else arm, the right operand of And/Or (the C emitter short-circuits it)
// and the index of a predicated load are evaluated only on some. `visit` returns
// true to skip the node's children.
class EvaluatedWalker : public ExprVisitor {
 public:
  using VisitFn = std::function<bool(const Expr&, bool)>;

  static void Walk(const Stmt& body, const VisitFn& visit) {
    EvaluatedWalker walker(visit);
    ForEachRootExpr(body, true, [&](const Expr& root, bool always) {
      walker.WalkExpr(root, always);
    });
  }

  void Visit(const Expr& e) override {
    if (!visit_(e, always_)) {
      ExprVisitor::Visit(e);
    }
  }

 protected:
  void VisitSelect(const SelectNode* op) override {
    Visit(op->condition);
    WalkExpr(op->true_value, false);
    WalkExpr(op->false_value, false);
  }
  void VisitCall(const CallNode* op) override {
    if (op->name != "if_then_else") {
      ExprVisitor::VisitCall(op);
      return;
    }
    Visit(op->args[0]);
    WalkExpr(op->args[1], false);
    WalkExpr(op->args[2], false);
  }
  void VisitLoad(const LoadNode* op) override {
    if (op->predicate == nullptr) {
      ExprVisitor::VisitLoad(op);
      return;
    }
    Visit(op->predicate);
    WalkExpr(op->index, false);
  }
  void VisitBinary(const BinaryNode* op) override {
    if (op->kind != ExprKind::kAnd && op->kind != ExprKind::kOr) {
      ExprVisitor::VisitBinary(op);
      return;
    }
    Visit(op->a);
    WalkExpr(op->b, false);
  }

 private:
  explicit EvaluatedWalker(const VisitFn& visit) : visit_(visit) {}

  void WalkExpr(const Expr& e, bool always) {
    const bool saved = always_;
    always_ = saved && always;
    Visit(e);
    always_ = saved;
  }

  const VisitFn& visit_;
  bool always_ = true;
};

// Replaces, top-down, every subexpression for which `bind` returns a variable.
class BindingReplacer : public StmtMutator {
 public:
  explicit BindingReplacer(std::function<Expr(const Expr&)> bind) : bind_(std::move(bind)) {}

  Expr Mutate(const Expr& e) override {
    if (Expr v = bind_(e)) {
      return v;
    }
    return StmtMutator::Mutate(e);
  }

 private:
  std::function<Expr(const Expr&)> bind_;
};

// Vars bound by LetStmt/Let inside `s`: hoisting an expression that reads one would
// move it out of its binding's scope.
std::unordered_set<const VarNode*> VarsBoundInside(const Stmt& s) {
  std::unordered_set<const VarNode*> bound;
  PostOrderVisitStmt(s, [&](const Stmt& st) {
    if (st->kind == StmtKind::kLetStmt) {
      bound.insert(static_cast<const LetStmtNode*>(st.get())->var.get());
    }
  });
  ForEachRootExpr(s, true, [&](const Expr& root, bool) {
    PostOrderVisit(root, [&](const Expr& e) {
      if (e->kind == ExprKind::kLet) {
        bound.insert(static_cast<const LetNode*>(e.get())->var.get());
      }
    });
  });
  return bound;
}

// What a loop body does to memory, for the rule that moves PureValue expressions:
// the buffers it stores to, and whether it calls a tensor intrinsic (which writes
// buffers through handles). Aliasing is judged by buffer-variable identity: a
// kernel's arguments never share storage with its output (CompiledGraph::Run
// rejects such bindings), and allocations are distinct.
struct BodyEffects {
  std::unordered_set<const VarNode*> stored;
  bool tensor_intrin = false;
};

BodyEffects ScanEffects(const Stmt& body) {
  BodyEffects fx;
  PostOrderVisitStmt(body, [&](const Stmt& st) {
    if (st->kind == StmtKind::kStore) {
      fx.stored.insert(static_cast<const StoreNode*>(st.get())->buffer_var.get());
    }
  });
  ForEachRootExpr(body, true, [&](const Expr& root, bool) {
    PostOrderVisit(root, [&](const Expr& e) {
      fx.tensor_intrin |=
          e->kind == ExprKind::kCall &&
          LookupTensorIntrin(static_cast<const CallNode*>(e.get())->name) != nullptr;
    });
  });
  return fx;
}

// A non-leaf integer expression that mentions at least one variable (pure constants
// fold on their own) and none of the `bound` ones. Moves anywhere: it cannot trap.
bool MovableInt(const Expr& e, const std::unordered_set<const VarNode*>& bound) {
  return e->kind != ExprKind::kIntImm && e->kind != ExprKind::kVar && PureIntArith(e) &&
         UsesSomeVar(e) && !UsesAnyVar(e, bound);
}

// A PureValue expression beyond integer arithmetic (it loads, calls or computes in
// float) that reads none of the `bound` vars and none of the buffers the body
// stores to, in a body without tensor intrinsics. Its value is then the same
// wherever the loop body evaluates it; the callers also require that the body
// always evaluates it, so binding it earlier adds no trap.
bool MovableValue(const Expr& e, const std::unordered_set<const VarNode*>& bound,
                  const BodyEffects& fx) {
  return !fx.tensor_intrin && e->kind != ExprKind::kVar && e->kind != ExprKind::kIntImm &&
         e->kind != ExprKind::kFloatImm && !PureIntArith(e) && PureValue(e) &&
         !UsesAnyVar(e, bound) && !ReadsAnyBuffer(e, fx.stored);
}

bool ContainsMul(const Expr& e) {
  bool found = false;
  PostOrderVisit(e, [&](const Expr& x) { found |= x->kind == ExprKind::kMul; });
  return found;
}

// Loop-invariant code motion over innermost loops. Step 1 moves maximal invariant
// subexpressions — integer index arithmetic and padding guards anywhere, scalar
// values (loads, math calls, float arithmetic) where the loop always runs and the
// body always evaluates them — to LetStmt bindings immediately outside the loop,
// computed once per outer iteration instead of once per element. Step 2 binds
// values that recur within one iteration (an unrolled tile reloads the same weight
// in every copy) once at the top of the body, and step 3 does the same for
// *loop-var-dependent* integer multiplies (an unrolled nest recomputes
// `ic * stride` in every copy).
class InvariantHoister : public StmtMutator {
 public:
  InvariantHoister(int* hoisted, int* csed) : hoisted_(hoisted), csed_(csed) {}

 protected:
  Stmt MutateFor(const ForNode* op, const Stmt& s) override {
    Stmt base = StmtMutator::MutateFor(op, s);
    const auto* n = static_cast<const ForNode*>(base.get());
    if (n->for_type == ForType::kVectorized || n->for_type == ForType::kThreadBinding ||
        n->for_type == ForType::kVThread) {
      return base;
    }
    if (ContainsFor(n->body) || ContainsAllocate(n->body)) {
      return base;  // innermost loops only
    }
    const BodyEffects fx = ScanEffects(n->body);
    int64_t extent = 0;
    const bool runs = is_const_int(n->extent, &extent) && extent > 0;
    std::unordered_set<const VarNode*> forbidden = VarsBoundInside(n->body);
    forbidden.insert(n->loop_var.get());

    // Step 1: hoist maximal invariant subexpressions out of the loop. An occurrence
    // the body always evaluates admits a value; every occurrence is then replaced.
    std::vector<std::pair<Var, Expr>> hoisted;
    std::unordered_map<std::string, Var> hoist_vars;
    EvaluatedWalker::Walk(n->body, [&](const Expr& e, bool always) {
      if (!MovableInt(e, forbidden) && !(always && runs && MovableValue(e, forbidden, fx))) {
        return false;
      }
      auto [it, fresh] = hoist_vars.emplace(ExprKey(e), nullptr);
      if (fresh) {
        it->second = make_var("hoist" + std::to_string(next_id_++), e->dtype);
        hoisted.emplace_back(it->second, e);
      }
      return true;
    });
    Stmt body = n->body;
    if (!hoisted.empty()) {
      body = BindingReplacer([&](const Expr& e) -> Expr {
               if (!MovableInt(e, forbidden) && !(runs && MovableValue(e, forbidden, fx))) {
                 return nullptr;
               }
               auto it = hoist_vars.find(ExprKey(e));
               return it != hoist_vars.end() ? it->second : nullptr;
             }).MutateStmt(body);
    }

    body = BindRecurringValues(body, fx);
    body = BindRecurringMuls(body, n->loop_var.get());
    if (hoisted.empty() && body == n->body) {
      return base;
    }
    Stmt out = for_stmt(n->loop_var, n->min, n->extent, std::move(body), n->for_type,
                        n->thread_tag);
    for (auto it = hoisted.rbegin(); it != hoisted.rend(); ++it) {
      out = let_stmt(it->first, it->second, std::move(out));
      ++*hoisted_;
    }
    return out;
  }

 private:
  // Step 2: binds values that recur within one iteration at the top of the body.
  // Nested repeats are counted too, so a prologue shared by differing products is
  // found; the top-down replacement then binds only the largest repeated one.
  Stmt BindRecurringValues(const Stmt& body, const BodyEffects& fx) {
    const std::unordered_set<const VarNode*> bound = VarsBoundInside(body);
    std::unordered_map<std::string, int> uses;
    std::unordered_set<std::string> always_evaluated;
    EvaluatedWalker::Walk(body, [&](const Expr& e, bool always) {
      if (MovableValue(e, bound, fx)) {
        std::string key = ExprKey(e);
        if (always) {
          always_evaluated.insert(key);
        }
        ++uses[std::move(key)];
      }
      return false;
    });
    std::vector<std::pair<Var, Expr>> recurring;
    std::unordered_map<std::string, Var> recurring_vars;
    Stmt out = BindingReplacer([&](const Expr& e) -> Expr {
                 if (!MovableValue(e, bound, fx)) {
                   return nullptr;
                 }
                 std::string key = ExprKey(e);
                 auto use = uses.find(key);
                 if (use == uses.end() || use->second < 2 || !always_evaluated.count(key)) {
                   return nullptr;
                 }
                 auto [it, fresh] = recurring_vars.emplace(std::move(key), nullptr);
                 if (fresh) {
                   it->second = make_var("valcse" + std::to_string(next_id_++), e->dtype);
                   recurring.emplace_back(it->second, e);
                 }
                 return it->second;
               }).MutateStmt(body);
    for (auto it = recurring.rbegin(); it != recurring.rend(); ++it) {
      out = let_stmt(it->first, it->second, std::move(out));
      ++*csed_;
    }
    return out;
  }

  // Step 3: binds recurring loop-var multiplies at the top of the body. Only
  // innermost multiplies (mul-free operands) are considered, so candidates never nest.
  Stmt BindRecurringMuls(const Stmt& body, const VarNode* loop_var) {
    const std::unordered_set<const VarNode*> bound = VarsBoundInside(body);
    std::vector<std::pair<std::string, Expr>> muls;
    std::unordered_map<std::string, int> mul_count;
    ForEachRootExpr(body, true, [&](const Expr& root, bool) {
      PostOrderVisit(root, [&](const Expr& e) {
        if (e->kind != ExprKind::kMul || !PureIntArith(e)) {
          return;
        }
        const auto* b = static_cast<const BinaryNode*>(e.get());
        if (ContainsMul(b->a) || ContainsMul(b->b) || !UsesVar(e, loop_var) ||
            UsesAnyVar(e, bound)) {
          return;
        }
        std::string key = ExprKey(e);
        if (mul_count[key]++ == 0) {
          muls.emplace_back(key, e);
        }
      });
    });
    std::vector<std::pair<Var, Expr>> selected;
    std::unordered_map<std::string, Var> mul_vars;
    for (const auto& [key, expr] : muls) {
      // Repeated products are worth one compute per iteration.
      if (mul_count.at(key) >= 2) {
        Var v = make_var("mulcse" + std::to_string(next_id_++), expr->dtype);
        selected.emplace_back(v, expr);
        mul_vars.emplace(key, v);
      }
    }
    if (selected.empty()) {
      return body;
    }
    Stmt out = BindingReplacer([&](const Expr& e) -> Expr {
                 if (e->kind != ExprKind::kMul) {
                   return nullptr;
                 }
                 auto it = mul_vars.find(ExprKey(e));
                 return it != mul_vars.end() ? it->second : nullptr;
               }).MutateStmt(body);
    for (auto it = selected.rbegin(); it != selected.rend(); ++it) {
      out = let_stmt(it->first, it->second, std::move(out));
      ++*csed_;
    }
    return out;
  }

  int* hoisted_;
  int* csed_;
  int next_id_ = 0;
};

}  // namespace

LoopSpecializeOptions LoopSpecializeOptions::Disabled() {
  LoopSpecializeOptions opts;
  opts.unroll_limit = 0;
  opts.hoist_invariants = false;
  return opts;
}

Stmt SpecializeLoops(const Stmt& s, const LoopSpecializeOptions& opts,
                     LoopSpecializeStats* stats) {
  LoopSpecializeStats local;
  LoopSpecializeStats* st = stats != nullptr ? stats : &local;
  Stmt body = s;
  if (opts.unroll_limit > 0) {
    // Unroll first: a fully-collapsed small nest turns its parent into an innermost
    // loop, which the hoister then gets to clean up.
    InnerLoopUnroller unroller(opts.unroll_limit, &st->unrolled_loops);
    body = unroller.MutateStmt(body);
  }
  if (opts.hoist_invariants) {
    InvariantHoister hoister(&st->hoisted_lets, &st->csed_exprs);
    body = hoister.MutateStmt(body);
  }
  return body;
}

}  // namespace tvmcpp
