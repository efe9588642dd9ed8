(* Artifact-keyed simulation sharing and trace replay.

   Small mutations of a priority function usually compile to the very
   same artifact, so most of the evaluator's time re-simulates programs
   it has already measured.  Two stacked fast paths exploit that without
   ever changing a measured value:

   - artifact sharing: the digest of everything cycle-relevant — the
     canonical transformed program, the dynamic-event instruction order,
     bench + dataset, machine config and schedule lengths — keys a table
     of finished (noise-free) simulation results.  Genomes that compile
     to the same artifact share one simulation; a candidate whose
     artifact equals the baseline's hits the baseline's entry and scores
     speedup exactly 1.0 without simulating.

   - trace replay: the trace key drops the machine config and schedule
     lengths, i.e. it identifies runs whose dynamic *event stream* is
     provably identical even though their timing differs (the scheduling
     study: pure intra-block permutations that keep every event-emitting
     instruction in the same relative order).  The first simulation of a
     trace key records the event stream into a compact int array
     (Machine.Trace); later artifact misses with the same trace key
     replay it through a fresh Cache/Predictor as a tight array walk
     instead of re-interpreting tens of millions of steps.  Replay
     performs the identical float operations in the identical order, so
     cycles stay bit-identical.

   Keys are conservative: any textual difference in the canonical
   program or in the order of event-emitting instructions produces a
   different key and a full simulation.  Noise is *never* stored —
   callers layer the per-genome jitter on top (Simulate.jittered).

   Recording is not free (up to 2^23 events, 64 MB, per run), so it is
   switched off with [max_traces = 0]: a miss is then a plain
   [Simulate.run], bit-identical to the traced run, and nothing is
   stored.  Study turns it off for every study whose evolved pass
   rewrites the program — the program is part of the trace key, so
   those studies never replay.  Only the scheduling study records.

   In a forked worker pool each worker has its own tables, so finished
   artifacts travel through the pool's share channel ([share]): a worker
   [export]s what it measured since its last reply, the parent
   [absorb]s it — counting it in [stats], and counting a key it already
   had as a duplicate — and forwards it to the other workers, which
   absorb it too.  An artifact key fixes the noise-free result, so an
   absorbed entry is exactly what a local simulation would have stored,
   and bit-identity holds at any -j.  Only full simulations and replays
   are exported, never absorbed entries or trace arrays.  A process
   starts collecting its own measurements the first time it is asked
   for them, so a cache nothing exports from (the sequential path, a
   domains pool, the parent of a fork pool) keeps no export list.

   In a domains pool the tables are shared memory, so every table and
   stats access goes through one mutex.  Simulation and replay run
   outside the lock; two domains racing on the same key at worst both
   simulate (deterministically, to the same result) and the second store
   overwrites the first with an equal value — slower, never divergent. *)

type stats = {
  mutable artifact_hits : int;
  mutable replays : int;
  mutable simulations : int;  (* full interpreter runs *)
  mutable traced : int;  (* of which recorded their event stream *)
  mutable duplicates : int;  (* absorbed entries whose key was known *)
}

type origin = Simulated | Replayed

(* One finished measurement as workers share it: the artifact key, how
   the result was obtained, and the noise-free result. *)
type entry = string * origin * Machine.Simulate.result

type t = {
  enabled : bool;
  max_artifacts : int;
  max_traces : int;
  max_trace_events : int option;  (* None = Trace.default_max_events *)
  artifacts : (string, Machine.Simulate.result) Hashtbl.t;
  traces : (string, Machine.Trace.t) Hashtbl.t;
  mutable trace_order : string list;  (* newest first, for eviction *)
  stats : stats;
  mutable exporting : bool;  (* collect own measurements into [fresh] *)
  mutable fresh : entry list;  (* newest first, since the last export *)
  lock : Mutex.t;  (* guards everything mutable above *)
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let create ?(enabled = true) ?(max_artifacts = 8192) ?(max_traces = 8)
    ?max_trace_events () =
  {
    enabled;
    max_artifacts;
    max_traces;
    max_trace_events;
    artifacts = Hashtbl.create 256;
    traces = Hashtbl.create 8;
    trace_order = [];
    stats =
      {
        artifact_hits = 0;
        replays = 0;
        simulations = 0;
        traced = 0;
        duplicates = 0;
      };
    exporting = false;
    fresh = [];
    lock = Mutex.create ();
  }

let stats t = t.stats

let dataset_tag = function
  | Benchmarks.Bench.Train -> "train"
  | Benchmarks.Bench.Novel -> "novel"

(* The canonical digest of a compiled artifact's dynamic behaviour: the
   transformed program with each block's instructions sorted by their
   (scheduling-invariant) ids, plus the *actual* order of the
   event-emitting instructions, which the scheduler may legally permute
   (independent loads) and which replay must therefore discriminate. *)
let trace_key ~(dataset : Benchmarks.Bench.dataset) (p : Compiler.prepared)
    (c : Compiler.compiled) : string =
  let buf = Buffer.create 8192 in
  let ppf = Format.formatter_of_buffer buf in
  Buffer.add_string buf p.Compiler.bench.Benchmarks.Bench.name;
  Buffer.add_char buf '/';
  Buffer.add_string buf (dataset_tag dataset);
  Buffer.add_char buf '\n';
  List.iter
    (fun (f : Ir.Func.t) ->
      Format.fprintf ppf "func %s frame=%d params=%d@\n" f.Ir.Func.fname
        f.Ir.Func.frame_size
        (List.length f.Ir.Func.params);
      List.iter
        (fun (b : Ir.Func.block) ->
          Format.fprintf ppf "%s:@\n" b.Ir.Func.blabel;
          let sorted =
            List.sort
              (fun (a : Ir.Instr.t) (b : Ir.Instr.t) ->
                compare a.Ir.Instr.id b.Ir.Instr.id)
              b.Ir.Func.instrs
          in
          List.iter
            (fun (i : Ir.Instr.t) ->
              Format.fprintf ppf "%a@\n" Ir.Instr.pp i)
            sorted;
          Format.fprintf ppf "-> %a@\n" Ir.Func.pp_terminator b.Ir.Func.term)
        f.Ir.Func.blocks)
    c.Compiler.prog.Ir.Func.funcs;
  Format.fprintf ppf "!events@\n";
  List.iter
    (fun (f : Ir.Func.t) ->
      List.iter
        (fun (b : Ir.Func.block) ->
          Format.fprintf ppf "%s.%s:@\n" f.Ir.Func.fname b.Ir.Func.blabel;
          List.iter
            (fun (i : Ir.Instr.t) ->
              match i.Ir.Instr.kind with
              | Ir.Instr.Load _ | Ir.Instr.Store _ | Ir.Instr.Prefetch _
              | Ir.Instr.Emit _ | Ir.Instr.Exit _ | Ir.Instr.Call _ ->
                Format.fprintf ppf "%a@\n" Ir.Instr.pp i
              | _ -> ())
            b.Ir.Func.instrs)
        f.Ir.Func.blocks)
    c.Compiler.prog.Ir.Func.funcs;
  Format.pp_print_flush ppf ();
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Fold the timing-relevant rest on top: machine config and schedule
   lengths.  Same artifact key => same noise-free simulation result. *)
let artifact_key ~(machine : Machine.Config.t) (tk : string)
    (schedule_cycles : int array) : string =
  let buf = Buffer.create 512 in
  Buffer.add_string buf tk;
  Buffer.add_string buf (Marshal.to_string machine []);
  Array.iter
    (fun len ->
      Buffer.add_string buf (string_of_int len);
      Buffer.add_char buf ',')
    schedule_cycles;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let store_trace t key tr =
  (* Replaying a truncated event stream would under-count cycles for
     every later artifact sharing this trace key; an incomplete trace
     must never enter the table.  [simulate] below only ever passes
     complete traces (run_traced returns None on overflow) — this guard
     keeps the invariant local instead of relying on the caller. *)
  if not (Machine.Trace.complete tr) then
    invalid_arg "Simcache.store_trace: incomplete trace";
  if t.max_traces > 0 then begin
    (* A re-stored key (two domains racing on one miss) replaces its
       entry in place and moves to the front, evicting nothing. *)
    let others = List.filter (fun k -> k <> key) t.trace_order in
    let keep =
      match List.rev others with
      | oldest :: rest when List.length others >= t.max_traces ->
        Hashtbl.remove t.traces oldest;
        List.rev rest
      | _ -> others
    in
    Hashtbl.replace t.traces key tr;
    t.trace_order <- key :: keep
  end

let store_artifact t key res =
  if Hashtbl.length t.artifacts >= t.max_artifacts then
    (* Crude but bounded: restart the table.  Baseline artifacts get
       re-simulated via trace replay on the next miss. *)
    Hashtbl.reset t.artifacts;
  Hashtbl.replace t.artifacts key res

(* Store a result this process measured, and collect it for export. *)
let store_own t key origin res =
  store_artifact t key res;
  if t.exporting then t.fresh <- (key, origin, res) :: t.fresh

let export t =
  locked t (fun () ->
      t.exporting <- true;
      let es = List.rev t.fresh in
      t.fresh <- [];
      es)

let absorb t (entries : entry list) =
  locked t (fun () ->
      List.iter
        (fun (key, origin, res) ->
          (match origin with
          | Simulated ->
            t.stats.simulations <- t.stats.simulations + 1;
            if t.max_traces > 0 then t.stats.traced <- t.stats.traced + 1
          | Replayed -> t.stats.replays <- t.stats.replays + 1);
          if Hashtbl.mem t.artifacts key then
            t.stats.duplicates <- t.stats.duplicates + 1
          else store_artifact t key res)
        entries)

let share t = { Gp.Parmap.learned = (fun () -> export t); absorb = absorb t }

(* One noise-free measurement of a compiled artifact, through the fast
   paths when enabled; with [enabled = false] every call is a fresh
   reference-engine simulation (the golden slow path). *)
let simulate (t : t) ~(machine : Machine.Config.t)
    ~(dataset : Benchmarks.Bench.dataset) (p : Compiler.prepared)
    (c : Compiler.compiled) : Machine.Simulate.result =
  let overrides = Benchmarks.Bench.overrides p.Compiler.bench dataset in
  if not t.enabled then
    Gp.Telemetry.span "study.simulate_s" (fun () ->
        Machine.Simulate.run ~engine:`Reference ~config:machine
          ~schedule_cycles:c.Compiler.schedule_cycles ~overrides
          c.Compiler.layout)
  else begin
    let tk = trace_key ~dataset p c in
    let ak = artifact_key ~machine tk c.Compiler.schedule_cycles in
    (* One locked lookup classifies the call; the expensive work (full
       simulation or replay) then runs unlocked on the hashed-out values. *)
    let hit =
      locked t (fun () ->
          match Hashtbl.find_opt t.artifacts ak with
          | Some res ->
            t.stats.artifact_hits <- t.stats.artifact_hits + 1;
            `Artifact res
          | None -> (
            match Hashtbl.find_opt t.traces tk with
            | Some tr ->
              t.stats.replays <- t.stats.replays + 1;
              `Trace tr
            | None ->
              t.stats.simulations <- t.stats.simulations + 1;
              if t.max_traces > 0 then t.stats.traced <- t.stats.traced + 1;
              `Miss))
    in
    match hit with
    | `Artifact res ->
      Gp.Telemetry.incr "evaluator.artifact_hits";
      res
    | `Trace tr ->
      Gp.Telemetry.incr "study.replayed";
      let res =
        Gp.Telemetry.span "study.replay_s" (fun () ->
            Machine.Simulate.replay ~config:machine
              ~schedule_cycles:c.Compiler.schedule_cycles tr)
      in
      locked t (fun () -> store_own t ak Replayed res);
      res
    | `Miss ->
      let res, tr =
        Gp.Telemetry.span "study.simulate_s" (fun () ->
            let schedule_cycles = c.Compiler.schedule_cycles in
            if t.max_traces = 0 then
              ( Machine.Simulate.run ~config:machine ~schedule_cycles
                  ~overrides c.Compiler.layout,
                None )
            else
              Machine.Simulate.run_traced ~config:machine
                ?max_trace_events:t.max_trace_events ~schedule_cycles
                ~overrides c.Compiler.layout)
      in
      locked t (fun () ->
          Option.iter (store_trace t tk) tr;
          store_own t ak Simulated res);
      res
  end
