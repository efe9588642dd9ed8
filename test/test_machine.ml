(* Tests for the machine model: cache hierarchy, branch predictor and the
   trace-driven simulator. *)

let cfg = Machine.Config.table3

(* --- Cache ----------------------------------------------------------------- *)

let test_cache_cold_miss_then_hit () =
  let c = Machine.Cache.create cfg in
  let first = Machine.Cache.load c 0 in
  Alcotest.(check int) "cold miss pays memory latency"
    cfg.Machine.Config.memory_extra_latency first;
  Alcotest.(check int) "second access hits L1" 0 (Machine.Cache.load c 0);
  (* Same cache line: free. *)
  Alcotest.(check int) "same line hits" 0 (Machine.Cache.load c 3)

let test_cache_line_granularity () =
  let c = Machine.Cache.create cfg in
  ignore (Machine.Cache.load c 0);
  let line = cfg.Machine.Config.l1.Machine.Config.line_words in
  Alcotest.(check bool) "next line misses" true
    (Machine.Cache.load c line > 0)

let test_cache_l2_hit_after_l1_eviction () =
  let c = Machine.Cache.create cfg in
  let l1 = cfg.Machine.Config.l1 in
  let sets = l1.Machine.Config.size_words
             / (l1.Machine.Config.line_words * l1.Machine.Config.assoc) in
  let way_stride = sets * l1.Machine.Config.line_words in
  (* Touch assoc+1 lines mapping to the same L1 set: the first is evicted
     from L1 but still resident in L2. *)
  for i = 0 to l1.Machine.Config.assoc do
    ignore (Machine.Cache.load c (i * way_stride))
  done;
  let stall = Machine.Cache.load c 0 in
  Alcotest.(check int) "evicted line found in L2"
    cfg.Machine.Config.l2.Machine.Config.extra_latency stall

let test_cache_lru () =
  let c = Machine.Cache.create cfg in
  let l1 = cfg.Machine.Config.l1 in
  let sets = l1.Machine.Config.size_words
             / (l1.Machine.Config.line_words * l1.Machine.Config.assoc) in
  let way_stride = sets * l1.Machine.Config.line_words in
  (* Fill all ways of set 0, re-touch line 0 to make it MRU, then load one
     more conflicting line: line 0 must survive. *)
  for i = 0 to l1.Machine.Config.assoc - 1 do
    ignore (Machine.Cache.load c (i * way_stride))
  done;
  ignore (Machine.Cache.load c 0);
  ignore (Machine.Cache.load c (l1.Machine.Config.assoc * way_stride));
  Alcotest.(check int) "MRU line survived" 0 (Machine.Cache.load c 0)

let test_prefetch_hides_latency () =
  let c = Machine.Cache.create cfg in
  ignore (Machine.Cache.prefetch c 64);
  Alcotest.(check int) "prefetched line hits" 0 (Machine.Cache.load c 64)

let test_prefetch_queue_saturates () =
  let c = Machine.Cache.create cfg in
  (* Issue more prefetches (to distinct lines) than the queue can hold,
     with no intervening demand misses to drain it. *)
  let costs =
    List.init (cfg.Machine.Config.prefetch_queue + 3) (fun i ->
        Machine.Cache.prefetch c (i * 64))
  in
  let dropped = List.length (List.filter (fun s -> s > 0) costs) in
  Alcotest.(check int) "overflow prefetches dropped with backpressure" 3
    dropped;
  let stats = Machine.Cache.stats c in
  Alcotest.(check int) "drop statistic" 3
    stats.Machine.Cache.prefetches_dropped

let test_redundant_prefetch_free () =
  let c = Machine.Cache.create cfg in
  ignore (Machine.Cache.load c 0);
  (* Prefetching a resident line consumes no queue entry. *)
  for _ = 1 to 50 do
    Alcotest.(check int) "redundant prefetch is free" 0
      (Machine.Cache.prefetch c 0)
  done;
  Alcotest.(check int) "no drops from redundant prefetches" 0
    (Machine.Cache.stats c).Machine.Cache.prefetches_dropped

(* --- Branch predictor ------------------------------------------------------ *)

let test_predictor_learns_bias () =
  let p = Profile.Predictor.create ~n_sites:1 in
  let mispredicts = ref 0 in
  for _ = 1 to 100 do
    if Profile.Predictor.observe p ~site:0 ~taken:true then incr mispredicts
  done;
  Alcotest.(check bool)
    (Printf.sprintf "always-taken learned (%d mispredicts)" !mispredicts)
    true (!mispredicts <= 1)

let test_predictor_2bit_hysteresis () =
  let p = Profile.Predictor.create ~n_sites:1 in
  (* Saturate taken. *)
  for _ = 1 to 10 do
    ignore (Profile.Predictor.observe p ~site:0 ~taken:true)
  done;
  (* One not-taken blip must not flip the prediction (2-bit hysteresis). *)
  ignore (Profile.Predictor.observe p ~site:0 ~taken:false);
  Alcotest.(check bool) "still predicts taken after one blip" false
    (Profile.Predictor.observe p ~site:0 ~taken:true)

let test_predictor_alternating_is_hard () =
  let p = Profile.Predictor.create ~n_sites:1 in
  let mispredicts = ref 0 in
  for i = 1 to 100 do
    if Profile.Predictor.observe p ~site:0 ~taken:(i mod 2 = 0) then
      incr mispredicts
  done;
  Alcotest.(check bool)
    (Printf.sprintf "alternating defeats 2-bit counters (%d/100)" !mispredicts)
    true
    (!mispredicts >= 40)

(* --- Simulator ------------------------------------------------------------- *)

let simulate_src ?(config = cfg) src =
  let prog = Frontend.Minic.compile src in
  let lens = Sched.List_sched.schedule_program ~config prog in
  let layout = Profile.Layout.prepare prog in
  let sc =
    Array.map
      (fun (f, l) -> Hashtbl.find lens (f, l))
      layout.Profile.Layout.block_name
  in
  Machine.Simulate.run ~config ~schedule_cycles:sc layout

(* Indexing is a shift and a mask, so a level whose line size or set
   count is not a power of two is rejected when the cache is built. *)
let test_cache_rejects_non_pow2 () =
  let l2 = cfg.Machine.Config.l2 in
  let rejects what (level : Machine.Config.cache_level) =
    match Machine.Cache.create { cfg with Machine.Config.l2 = level } with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument _ -> ()
  in
  rejects "12-word lines" { l2 with Machine.Config.line_words = 12 };
  rejects "24 sets" { l2 with Machine.Config.size_words = 24 * 8 * 8 };
  rejects "no ways" { l2 with Machine.Config.assoc = 0 };
  List.iter
    (fun (m : Machine.Config.t) -> ignore (Machine.Cache.create m))
    Machine.Config.
      [ table3; table3_regalloc; table3_narrow; itanium1; itanium_small_l2 ]

(* A wild access below address 0 is the interpreter's to reject: the
   cache model sees the address first (the observer runs before the
   bounds check) and must stay total, so every path that executes the
   program raises the interpreter's own [Trap] — Interp.run, Simulate.run
   on both engines, and the traced run. *)
let test_negative_address_traps () =
  let c = Machine.Cache.create cfg in
  Alcotest.(check int) "negative load is a cold miss"
    cfg.Machine.Config.memory_extra_latency (Machine.Cache.load c (-9));
  Alcotest.(check int) "then it hits" 0 (Machine.Cache.load c (-9));
  Alcotest.(check bool) "line -1 is not an empty way" true
    (Machine.Cache.load (Machine.Cache.create cfg) (-8) > 0);
  Machine.Cache.store c (-100);
  ignore (Machine.Cache.prefetch c (-100));
  let outcome f =
    match f () with
    | _ -> "returned"
    | exception Profile.Interp.Trap msg -> "Trap " ^ msg
  in
  List.iter
    (fun addr ->
      List.iter
        (fun (what, body) ->
          (* [a] is the only global, at address 0, so [a[k]] is address k. *)
          let src =
            Printf.sprintf
              {| global int a[4];
                 int main() { int k = %d; %s return 0; } |}
              addr body
          in
          let prog = Frontend.Minic.compile src in
          let layout = Profile.Layout.prepare prog in
          Alcotest.(check int) "a at address 0" 0
            (Hashtbl.find layout.Profile.Layout.global_base "a");
          let lens = Sched.List_sched.schedule_program ~config:cfg prog in
          let sc =
            Array.map
              (fun (f, l) -> Hashtbl.find lens (f, l))
              layout.Profile.Layout.block_name
          in
          let name = Printf.sprintf "%s at %d" what addr in
          let want = outcome (fun () -> Profile.Interp.run layout) in
          Alcotest.(check bool) (name ^ ": interpreter traps") true
            (String.length want > 5 && String.sub want 0 5 = "Trap ");
          List.iter
            (fun (path, f) ->
              Alcotest.(check string) (name ^ ": " ^ path) want (outcome f))
            [
              ( "Simulate.run fast",
                fun () ->
                  Machine.Simulate.run ~engine:`Fast ~config:cfg
                    ~schedule_cycles:sc layout );
              ( "Simulate.run reference",
                fun () ->
                  Machine.Simulate.run ~engine:`Reference ~config:cfg
                    ~schedule_cycles:sc layout );
              ( "Simulate.run_traced",
                fun () ->
                  fst
                    (Machine.Simulate.run_traced ~config:cfg
                       ~schedule_cycles:sc layout) );
            ])
        [ ("load", "emit(a[k]);"); ("store", "a[k] = 1;") ])
    [ -9; -100 ]

let test_simulate_deterministic () =
  let src =
    {| global int a[64];
       int main() {
         int i; int s = 0;
         for (i = 0; i < 64; i = i + 1) { a[i] = i; s = s + a[i / 2]; }
         emit(s);
         return 0; } |}
  in
  let r1 = simulate_src src and r2 = simulate_src src in
  Alcotest.(check (float 0.0)) "cycles deterministic"
    r1.Machine.Simulate.cycles r2.Machine.Simulate.cycles;
  Alcotest.(check int) "checksum deterministic" r1.Machine.Simulate.checksum
    r2.Machine.Simulate.checksum

let test_simulate_charges_mispredicts () =
  (* A data-dependent unpredictable branch must cost more than a
     perfectly biased one, all else equal. *)
  let template pattern =
    Printf.sprintf
      {| global int a[256];
         int main() {
           int i; int s = 0;
           for (i = 0; i < 256; i = i + 1) { a[i] = %s; }
           for (i = 0; i < 256; i = i + 1) {
             if (a[i]) { s = s + 3; } else { s = s - 1; }
           }
           emit(s);
           return 0; } |}
      pattern
  in
  (* Hyperblock formation is not applied here, so the branch survives. *)
  let biased = simulate_src (template "1") in
  let alternating = simulate_src (template "i % 2") in
  Alcotest.(check bool)
    (Printf.sprintf "alternating (%.0f) slower than biased (%.0f)"
       alternating.Machine.Simulate.cycles biased.Machine.Simulate.cycles)
    true
    (alternating.Machine.Simulate.cycles
    > biased.Machine.Simulate.cycles +. 500.0)

let test_simulate_charges_cache_misses () =
  let template stride n =
    Printf.sprintf
      {| global float big[65536];
         int main() {
           int i; float s = 0.0;
           for (i = 0; i < %d; i = i + 1) { s = s + big[i * %d %% 65536]; }
           emit(s);
           return 0; } |}
      n stride
  in
  let sequential = simulate_src (template 1 4096) in
  let strided = simulate_src (template 257 4096) in
  Alcotest.(check bool)
    (Printf.sprintf "strided (%.0f) slower than sequential (%.0f)"
       strided.Machine.Simulate.cycles sequential.Machine.Simulate.cycles)
    true
    (strided.Machine.Simulate.cycles > sequential.Machine.Simulate.cycles);
  Alcotest.(check bool) "strided misses more" true
    (strided.Machine.Simulate.cache.Machine.Cache.memory_accesses
     + strided.Machine.Simulate.cache.Machine.Cache.l3_hits
    > sequential.Machine.Simulate.cache.Machine.Cache.memory_accesses
      + sequential.Machine.Simulate.cache.Machine.Cache.l3_hits)

let test_simulate_noise () =
  let src = {| int main() { emit(1); return 0; } |} in
  let prog = Frontend.Minic.compile src in
  let lens = Sched.List_sched.schedule_program ~config:cfg prog in
  let layout = Profile.Layout.prepare prog in
  let sc =
    Array.map (fun (f, l) -> Hashtbl.find lens (f, l))
      layout.Profile.Layout.block_name
  in
  let base =
    Machine.Simulate.run ~config:cfg ~schedule_cycles:sc layout
  in
  let noisy =
    Machine.Simulate.run
      ~noise:(Random.State.make [| 1 |], 0.05)
      ~config:cfg ~schedule_cycles:sc layout
  in
  Alcotest.(check bool) "noise within amplitude" true
    (Float.abs ((noisy.Machine.Simulate.cycles /. base.Machine.Simulate.cycles) -. 1.0)
    <= 0.05 +. 1e-9)

let suite =
  [
    Alcotest.test_case "cache cold miss then hit" `Quick
      test_cache_cold_miss_then_hit;
    Alcotest.test_case "cache line granularity" `Quick
      test_cache_line_granularity;
    Alcotest.test_case "L2 catches L1 evictions" `Quick
      test_cache_l2_hit_after_l1_eviction;
    Alcotest.test_case "LRU replacement" `Quick test_cache_lru;
    Alcotest.test_case "prefetch hides latency" `Quick
      test_prefetch_hides_latency;
    Alcotest.test_case "prefetch queue saturates" `Quick
      test_prefetch_queue_saturates;
    Alcotest.test_case "redundant prefetches are free" `Quick
      test_redundant_prefetch_free;
    Alcotest.test_case "predictor learns bias" `Quick test_predictor_learns_bias;
    Alcotest.test_case "predictor hysteresis" `Quick
      test_predictor_2bit_hysteresis;
    Alcotest.test_case "alternating branches mispredict" `Quick
      test_predictor_alternating_is_hard;
    Alcotest.test_case "non-power-of-two geometry rejected" `Quick
      test_cache_rejects_non_pow2;
    Alcotest.test_case "negative addresses trap, not crash" `Quick
      test_negative_address_traps;
    Alcotest.test_case "simulation is deterministic" `Quick
      test_simulate_deterministic;
    Alcotest.test_case "mispredicts cost cycles" `Quick
      test_simulate_charges_mispredicts;
    Alcotest.test_case "cache misses cost cycles" `Quick
      test_simulate_charges_cache_misses;
    Alcotest.test_case "measurement noise injection" `Quick test_simulate_noise;
  ]
