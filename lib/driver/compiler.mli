(** The full compilation pipeline, parameterized by the three heuristics
    under study, mirroring the paper's Trimaran setup: scalar
    optimizations and unrolling, profiling, prefetch insertion,
    hyperblock formation, register allocation, VLIW scheduling and
    trace-driven simulation. *)

type heuristics = {
  hb_priority : Gp.Expr.rexpr;           (** hyperblock path priority *)
  ra_savings : Gp.Expr.rexpr;            (** regalloc per-block savings *)
  pf_confidence : Gp.Expr.bexpr option;  (** None = prefetching off *)
  sched_priority : Gp.Expr.rexpr;
      (** list-scheduling rank; an extension slot beyond the paper's three
          case studies (its Section 2 motivates it) *)
}

val baseline : ?prefetch:bool -> unit -> heuristics
(** The stock compiler: Equation (1), Equation (2), and (optionally)
    ORC's trip-count confidence. *)

(** Where a compile-prefix snapshot stops: after prefetch insertion and
    hyperblock formation, or after register allocation as well. *)
type stage = Through_hyperblock | Through_regalloc

(** The program after the leading passes whose heuristics a study holds
    fixed, run once per benchmark instead of once per candidate, with
    those passes' statistics and every input their output depended on.
    Built only by {!with_snapshot}. *)
type snapshot = private {
  sn_upto : stage;
  sn_machine : Machine.Config.t;
  sn_hb_config : Hyperblock.Form.config;
  sn_compiled_eval : bool;
  sn_heuristics : heuristics;
      (** the heuristics the prefix ran with; only its prefetch,
          hyperblock and (through regalloc) allocation slots matter *)
  sn_prog : Ir.Func.program;  (** never mutated; {!compile} copies it *)
  sn_prefetches : Prefetch.Insert.stats;
  sn_hb_stats : Hyperblock.Form.stats;
  sn_spills : int;  (** 0 when the prefix stops before regalloc *)
}

(** A benchmark after the heuristic-independent work: lowering, scalar
    optimization, profiling on the training dataset.  Shared across all
    candidate heuristics: every {!compile} works on its own copy of
    [optimized], or of the snapshot's program when one applies. *)
type prepared = {
  bench : Benchmarks.Bench.t;
  optimized : Ir.Func.program;
  prof : Profile.Prof.t;
  snapshot : snapshot option;  (** [None] from {!prepare} *)
}

val prepare :
  ?opt_config:Opt.Pipeline.config -> Benchmarks.Bench.t -> prepared

val with_snapshot :
  ?compiled_eval:bool -> machine:Machine.Config.t -> heuristics:heuristics ->
  upto:stage -> prepared -> prepared
(** [with_snapshot ~machine ~heuristics ~upto p] runs the passes through
    [upto] once on a copy of [p.optimized], with the default hyperblock
    config, and returns [p] carrying the result as its snapshot.
    [compiled_eval] means what it means for {!compile}. *)

type compiled = {
  prog : Ir.Func.program;
  layout : Profile.Layout.t;
  schedule_cycles : int array;
  hb_stats : Hyperblock.Form.stats;
  spills : int;
  prefetches : Prefetch.Insert.stats;
}

val compile :
  ?hb_config:Hyperblock.Form.config -> ?compiled_eval:bool ->
  machine:Machine.Config.t -> heuristics:heuristics -> prepared -> compiled
(** [compiled_eval] (default [true]) evaluates all four heuristic
    expressions through the {!Gp.Evalc} bytecode compiler — each pass
    compiles its expression once and amortizes it over every decision
    point.  [~compiled_eval:false] routes every evaluation through the
    {!Gp.Eval} tree-walker instead, the bit-identical executable
    reference ([--no-compiled-eval] at the CLI).

    When [p] carries a snapshot, [compile] starts from a copy of the
    snapshot's program and runs only the remaining passes, provided the
    machine, [hb_config], [compiled_eval] and every heuristic the prefix
    used are structurally equal to the snapshot's.  Otherwise it falls
    back to the full pipeline from [p.optimized].  The artifact is the
    same either way: fresh register, predicate and instruction ids come
    from per-function counters that the copy carries over. *)

val simulate :
  ?noise:Random.State.t * float -> machine:Machine.Config.t ->
  dataset:Benchmarks.Bench.dataset -> prepared -> compiled ->
  Machine.Simulate.result
