(** Artifact-keyed simulation sharing and trace replay.

    Most candidate heuristics compile to artifacts the run has already
    measured.  This cache keys noise-free simulation results on a digest
    of everything cycle-relevant (canonical transformed program,
    event-instruction order, bench + dataset, machine config, schedule
    lengths) so identical artifacts share one simulation, and keeps the
    recorded dynamic-event trace of recent programs so artifacts that
    differ only in schedule lengths (the scheduling study) are re-timed
    by replaying the event array instead of re-interpreting.  Both paths
    return bit-identical cycles and checksums to a fresh simulation;
    noise is never stored — layer {!Machine.Simulate.jittered} on top. *)

(** What this cache did and, in the parent of a fork pool, what its
    workers reported: [simulations] and [replays] count those received
    through {!share} as well as local ones, and [duplicates] counts the
    received entries whose key was already in the table (two workers
    measured the same artifact), so [simulations - duplicates] is the
    number of distinct artifacts simulated, as under [`Seq].
    [artifact_hits] stays local. *)
type stats = {
  mutable artifact_hits : int;
  mutable replays : int;
  mutable simulations : int;  (** full interpreter runs *)
  mutable traced : int;  (** of which recorded their event stream *)
  mutable duplicates : int;  (** absorbed entries whose key was known *)
}

type t

val create :
  ?enabled:bool -> ?max_artifacts:int -> ?max_traces:int ->
  ?max_trace_events:int -> unit -> t
(** [enabled = false] turns every {!simulate} into a fresh
    reference-engine simulation — the golden slow path the fast paths
    are tested against.  Table sizes are bounded: artifacts reset at
    [max_artifacts] (default 8192), traces evict oldest-first past
    [max_traces] (default 8).  [max_traces = 0] turns recording off: a
    miss is a plain {!Machine.Simulate.run} (bit-identical to the traced
    run) and no trace is ever stored or replayed.  [max_trace_events]
    caps the per-trace event budget (default
    {!Machine.Trace.default_max_events}); a run that overflows it is
    still measured exactly but yields no stored trace — incomplete
    traces never enter the table. *)

val stats : t -> stats

val trace_key :
  dataset:Benchmarks.Bench.dataset -> Compiler.prepared -> Compiler.compiled ->
  string
(** Digest identifying the dynamic event stream: canonical program (each
    block's instructions sorted by scheduling-invariant id) plus the
    actual program order of event-emitting instructions, bench and
    dataset.  Exposed for tests. *)

val artifact_key : machine:Machine.Config.t -> string -> int array -> string
(** [artifact_key ~machine trace_key schedule_cycles]: the result-sharing
    key; same key implies the same noise-free simulation result. *)

val store_trace : t -> string -> Machine.Trace.t -> unit
(** Insert a recorded trace under its trace key, evicting oldest-first
    so the table never holds more than [max_traces] (none at 0).
    Exposed for tests.
    @raise Invalid_argument on an incomplete trace — an overflowed event
    stream must never be replayed. *)

val simulate :
  t -> machine:Machine.Config.t -> dataset:Benchmarks.Bench.dataset ->
  Compiler.prepared -> Compiler.compiled -> Machine.Simulate.result
(** One noise-free measurement, through artifact sharing, then trace
    replay, then a full fast-engine simulation (traced unless
    [max_traces = 0]).  Telemetry: bumps [evaluator.artifact_hits] /
    [study.replayed] counters and records [study.simulate_s] /
    [study.replay_s] spans. *)

type entry
(** One finished noise-free measurement, keyed by its artifact and
    tagged as a full simulation or a replay. *)

val share : t -> entry Gp.Parmap.share
(** The cache as a fork pool's side channel (see {!Gp.Parmap.share}).
    [learned] returns the full simulations and replays this process ran
    since the previous call; the first call starts the collection, so a
    cache that is never asked keeps nothing.  [absorb] stores each entry
    under its key exactly as the local simulation would have, counts it
    in {!stats} as a simulation or a replay, and counts it as a
    duplicate instead of storing it when the key is already known. *)
