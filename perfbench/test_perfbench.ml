(* The benchmark's own tests: span arithmetic, metric names, input
   generation, the BENCHMARK.json tables, and that the deterministic
   counts of a local workload repeat exactly.  Sizes are kept tiny. *)

open Perfbench

let failures = ref 0

let check name ok =
  if ok then Printf.printf "ok   %s\n%!" name
  else begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

let close a b = Float.abs (a -. b) < 1e-9

let span_arithmetic () =
  check "self time: no children" (close (Span.self_time ~start:1.0 ~stop:4.0 []) 3.0);
  check "self time: overlapping and clipped children"
    (close
       (Span.self_time ~start:0.0 ~stop:10.0
          [ (1.0, 3.0); (2.0, 5.0); (8.0, 12.0); (-1.0, 0.5); (11.0, 13.0) ])
       3.5);
  check "self time: children covering everything"
    (close (Span.self_time ~start:0.0 ~stop:2.0 [ (0.0, 1.0); (1.0, 2.0) ]) 0.0);
  let mk id name parent start stop =
    { Span.id; name; parent; req = -1; start; stop }
  in
  let tree =
    [ mk 0 "root" (-1) 0.0 10.0; mk 1 "a" 0 1.0 4.0; mk 2 "b" 1 2.0 3.0;
      mk 3 "a" 0 6.0 7.0 ]
  in
  let self = Span.self_times tree in
  check "self times per name"
    (close (List.assoc "root" self) 6.0
    && close (List.assoc "a" self) 3.0
    && close (List.assoc "b" self) 1.0);
  check "self times sum to the top-level duration"
    (close (List.fold_left (fun a (_, v) -> a +. v) 0.0 self) 10.0);
  let sp = Span.create ~enabled:true in
  let outer = Span.enter sp ~req:7 "outer" in
  Span.with_span sp "inner" (fun () -> ());
  Span.leave sp outer;
  (match Span.spans sp with
  | [ o; i ] ->
    check "recorder nests and shares the request id"
      (o.Span.name = "outer" && i.Span.parent = o.Span.id && i.Span.req = 7
       && o.Span.parent = -1)
  | _ -> check "recorder nests and shares the request id" false);
  let off = Span.create ~enabled:false in
  check "disabled recorder records nothing"
    (Span.with_span off "x" (fun () -> 42) = 42 && Span.spans off = [])

let metric_names () =
  let all = Metrics.end_to_end @ Metrics.per_layer in
  check "metric names match [A-Za-z0-9_.-]+"
    (List.for_all (fun (n, _) -> Metrics.valid_name n) all);
  check "metric names are unique"
    (List.length (List.sort_uniq compare (List.map fst all)) = List.length all);
  check "end-to-end metrics include setup_s in seconds"
    (List.assoc_opt "setup_s" Metrics.end_to_end = Some "s")

let inputs () =
  let all_same =
    List.for_all
      (fun (_, w) ->
        List.for_all
          (fun k ->
            Inputs.describe (Inputs.rep w ~seed:11 k)
            = Inputs.describe (Inputs.rep w ~seed:11 k))
          [ 0; 1; 2 ])
      Inputs.workloads
  in
  check "same seed gives the same inputs" all_same;
  check "another seed gives other inputs"
    (List.for_all
       (fun (_, w) ->
         Inputs.describe (Inputs.rep w ~seed:11 0)
         <> Inputs.describe (Inputs.rep w ~seed:12 0))
       Inputs.workloads);
  check "repetitions of one seed differ"
    (List.for_all
       (fun (_, w) ->
         Inputs.describe (Inputs.rep w ~seed:11 0)
         <> Inputs.describe (Inputs.rep w ~seed:11 1))
       Inputs.workloads);
  match Inputs.rep Inputs.Hb_serve ~seed:3 0 with
  | Inputs.Served { clients; jobs } ->
    check "served load stays within detected cores"
      (List.length clients <= Inputs.cores () && jobs <= Inputs.cores ());
    let descs l = List.map (fun s -> Inputs.describe (Inputs.Local s)) l in
    (match clients with
    | a :: b :: _ ->
      check "serve clients overlap in (bench, seed)"
        (List.exists (fun x -> List.mem x (descs b)) (descs a))
    | _ -> ())
  | Inputs.Local _ -> check "hb-serve is served" false

let benchmark_json () =
  let text = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  match Gp.Telemetry.json_of_string text with
  | Error e -> check ("BENCHMARK.json parses: " ^ e) false
  | Ok j ->
    let table key =
      match Gp.Telemetry.member key j with
      | Some (Gp.Telemetry.List l) ->
        List.map
          (fun m ->
            match (Gp.Telemetry.member "name" m, Gp.Telemetry.member "unit" m) with
            | Some (Gp.Telemetry.String n), Some (Gp.Telemetry.String u) -> (n, u)
            | _ -> ("", ""))
          l
      | _ -> []
    in
    check "BENCHMARK.json end_to_end matches the benchmark"
      (table "end_to_end" = Metrics.end_to_end);
    check "BENCHMARK.json per_layer matches the benchmark"
      (table "per_layer" = Metrics.per_layer);
    let workloads =
      match Gp.Telemetry.member "workloads" j with
      | Some (Gp.Telemetry.List l) ->
        List.map
          (fun m ->
            match (Gp.Telemetry.member "name" m, Gp.Telemetry.member "why" m) with
            | Some (Gp.Telemetry.String n), Some (Gp.Telemetry.String y) -> (n, y)
            | _ -> ("", ""))
          l
      | _ -> []
    in
    check "BENCHMARK.json workloads and reasons match the benchmark"
      (workloads = List.map (fun (n, w) -> (n, Inputs.why w)) Inputs.workloads)

(* A traced run's deterministic counts: engine misses, then the
   re-evaluation's compile and simulation-cache counts. *)
let counts ~backend ~jobs (s : Inputs.study) =
  let spans = Span.create ~enabled:true in
  let cfg = { Driver.Study.default_config with Driver.Study.backend; jobs } in
  let r = Study_run.run ~spans ~track:true cfg s in
  let acc = Layers.create () in
  let rsp = Span.create ~enabled:false in
  let c =
    Layers.context rsp acc ~kind:s.Inputs.kind ~machine:r.Study_run.machine
      ~benches:s.Inputs.benches ~expected:r.Study_run.baselines
  in
  List.iteri (fun i m -> Layers.reevaluate rsp acc c ~req:i m) r.Study_run.misses;
  ( r.Study_run.cache.Driver.Evaluator.misses,
    acc.Layers.compiles,
    (acc.Layers.sim_calls, acc.Layers.hits, acc.Layers.replays, acc.Layers.sims),
    acc.Layers.mismatches,
    r.Study_run.result )

let deterministic_counts () =
  let tiny kind benches =
    { Inputs.kind; benches;
      params =
        { Gp.Params.tiny with population_size = 10; generations = 3; rng_seed = 5 } }
  in
  let sched = tiny Driver.Study.Sched_study [ "codrle4"; "decodrle4" ] in
  let m1, c1, s1, bad1, r1 = counts ~backend:`Seq ~jobs:1 sched in
  let m2, c2, s2, _, _ = counts ~backend:`Seq ~jobs:1 sched in
  check "sequential counts repeat exactly" (m1 = m2 && c1 = c2 && s1 = s2);
  check "re-evaluation matches the run bit for bit" (bad1 = 0);
  check "re-evaluation exercises trace replay or artifact sharing"
    (let _, h, rp, _ = s1 in h + rp > 0);
  let m3, c3, s3, bad3, r3 = counts ~backend:`Fork ~jobs:2 sched in
  check "pooled counts equal the sequential ones"
    (m3 = m1 && c3 = c1 && s3 = s1 && bad3 = 0);
  check "pooled results equal the sequential ones"
    (Study_run.mismatches r1 r3 = 0);
  check "results equal the library's sequential driver"
    (Study_run.mismatches r1 (Study_run.reference sched) = 0)

let () =
  span_arithmetic ();
  metric_names ();
  inputs ();
  benchmark_json ();
  deterministic_counts ();
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end
