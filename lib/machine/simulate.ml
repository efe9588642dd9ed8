(* Trace-driven EPIC timing simulation.

   The interpreter executes the (transformed, scheduled) program once and
   streams its dynamic events into the timing model:

     cycles = sum over executed blocks of the block's schedule length
            + per-load cache stalls beyond an L1 hit
            + mispredict penalty per mispredicted branch
            + redirect bubble per taken control transfer
            + config.call_overhead_cycles per dynamic call (0 on stock
              machines: the scheduler already embeds call latency in
              schedule lengths).

   Schedule lengths come from the VLIW list scheduler and are indexed by
   the global block uid of the prepared layout.  This decoupled model
   captures the first-order effects the paper's heuristics trade off:
   issue slots and dependence height (schedule lengths), memory latency
   (cache stalls), and control transfer costs (mispredictions).

   The same timing observer can be driven by either interpreter engine
   ([run]) or by a recorded event trace ([replay]); because the event
   sequence is identical, cycles are bit-identical across all three.

   [noise] injects multiplicative measurement noise, used by the
   prefetching study to model a real, non-reproducible machine. *)

type result = {
  cycles : float;
  output : float list;
  checksum : int;
  dynamic_instrs : int;
  branches : int;
  mispredicts : int;
  cache : Cache.stats;
}

type engine = [ `Fast | `Reference ]

(* The cycle accumulator.  A one-field all-float record stores its float
   unboxed, so an addition allocates nothing; a [float ref] would box
   every new total. *)
type acc = { mutable cycles : float }

(* The timing model as an observer over dynamic events. *)
let timing_observer ~(config : Config.t) ~(schedule_cycles : int array)
    ~(cache : Cache.t) ~(predictor : Profile.Predictor.t) (acc : acc) :
    Profile.Interp.observer =
  let penalty = float_of_int config.Config.mispredict_penalty in
  let redirect = float_of_int config.Config.taken_branch_redirect in
  let call_overhead = config.Config.call_overhead_cycles in
  {
    Profile.Interp.block_enter =
      (fun uid ->
        acc.cycles <- acc.cycles +. float_of_int schedule_cycles.(uid));
    branch =
      (fun site taken ->
        if taken then acc.cycles <- acc.cycles +. redirect;
        if Profile.Predictor.observe predictor ~site ~taken then
          acc.cycles <- acc.cycles +. penalty);
    mem =
      (fun kind addr ->
        match kind with
        | Profile.Interp.Mload ->
          acc.cycles <- acc.cycles +. float_of_int (Cache.load cache addr)
        | Profile.Interp.Mstore -> Cache.store cache addr
        | Profile.Interp.Mprefetch ->
          acc.cycles <- acc.cycles +. float_of_int (Cache.prefetch cache addr));
    call =
      (fun _ ->
        if call_overhead > 0.0 then
          acc.cycles <- acc.cycles +. call_overhead);
  }

let jittered ?noise cycles =
  match noise with
  | None -> cycles
  | Some (rng, amplitude) ->
    let jitter = 1.0 +. (amplitude *. (Random.State.float rng 2.0 -. 1.0)) in
    cycles *. jitter

let check_lengths ~schedule_cycles (layout : Profile.Layout.t) =
  if Array.length schedule_cycles < layout.Profile.Layout.n_blocks then
    invalid_arg "Simulate.run: schedule_cycles too short"

let assemble ~cycles ~output ~dynamic_instrs ~(predictor : Profile.Predictor.t)
    ~cache =
  {
    cycles;
    output;
    checksum = Profile.Interp.checksum output;
    dynamic_instrs;
    branches = predictor.Profile.Predictor.branches;
    mispredicts = predictor.Profile.Predictor.mispredicts;
    cache = Cache.stats cache;
  }

let run ?(engine = `Fast) ?(fuel = 30_000_000) ?(overrides = []) ?noise
    ~(config : Config.t) ~(schedule_cycles : int array)
    (layout : Profile.Layout.t) : result =
  check_lengths ~schedule_cycles layout;
  let cache = Cache.create config in
  let predictor =
    Profile.Predictor.create ~n_sites:layout.Profile.Layout.n_branch_sites
  in
  let acc = { cycles = 0.0 } in
  let observer =
    timing_observer ~config ~schedule_cycles ~cache ~predictor acc
  in
  let interp =
    match engine with
    | `Fast -> Profile.Interp.run
    | `Reference -> Profile.Interp.run_reference
  in
  let res = interp ~observer ~fuel ~overrides layout in
  assemble
    ~cycles:(jittered ?noise acc.cycles)
    ~output:res.Profile.Interp.output
    ~dynamic_instrs:res.Profile.Interp.steps ~predictor ~cache

(* Simulate and record the dynamic event stream.  Returns the noise-free
   result plus the trace when it fit the event budget; the recording
   wrapper forwards events unchanged, so the result is bit-identical to
   [run] without noise. *)
let run_traced ?(fuel = 30_000_000) ?(overrides = []) ?max_trace_events
    ~(config : Config.t) ~(schedule_cycles : int array)
    (layout : Profile.Layout.t) : result * Trace.t option =
  check_lengths ~schedule_cycles layout;
  let cache = Cache.create config in
  let predictor =
    Profile.Predictor.create ~n_sites:layout.Profile.Layout.n_branch_sites
  in
  let acc = { cycles = 0.0 } in
  let timing =
    timing_observer ~config ~schedule_cycles ~cache ~predictor acc
  in
  let tr =
    Trace.create ?max_events:max_trace_events
      ~n_blocks:layout.Profile.Layout.n_blocks
      ~n_branch_sites:layout.Profile.Layout.n_branch_sites ()
  in
  let observer = Trace.recording_observer tr timing in
  let res = Profile.Interp.run ~observer ~fuel ~overrides layout in
  Trace.finish tr res;
  let result =
    assemble ~cycles:acc.cycles ~output:res.Profile.Interp.output
      ~dynamic_instrs:res.Profile.Interp.steps ~predictor ~cache
  in
  (result, if Trace.complete tr then Some tr else None)

(* Re-time a recorded run under (possibly different) schedule lengths by
   walking the event array instead of re-interpreting.  Noise-free. *)
let replay ~(config : Config.t) ~(schedule_cycles : int array) (tr : Trace.t) :
    result =
  (* An overflowed recording is a prefix of the run: re-timing it would
     silently under-count cycles, so reject it up front (Trace.replay
     would also raise, but only after cache/predictor setup). *)
  if not (Trace.complete tr) then
    invalid_arg "Simulate.replay: incomplete trace (event budget overflowed)";
  if Array.length schedule_cycles < tr.Trace.n_blocks then
    invalid_arg "Simulate.replay: schedule_cycles too short";
  let cache = Cache.create config in
  let predictor = Profile.Predictor.create ~n_sites:tr.Trace.n_branch_sites in
  let acc = { cycles = 0.0 } in
  let observer =
    timing_observer ~config ~schedule_cycles ~cache ~predictor acc
  in
  Trace.replay tr observer;
  assemble ~cycles:acc.cycles ~output:tr.Trace.output
    ~dynamic_instrs:tr.Trace.steps ~predictor ~cache
