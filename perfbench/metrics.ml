(* The benchmark's metric names and units.  End-to-end metrics are
   measured with tracing off and apply to every workload; per-layer
   metrics come from the traced run and read 0 where a workload does not
   exercise the layer (the served round trip, for one, exists only on
   hb-serve).  Each per-layer group's comment names the end-to-end metric
   it should move, and on which workload. *)

let end_to_end =
  [
    ("wall_s", "s");
    ("setup_s", "s");
    ("cand_per_s", "1/s");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    (* Study set-up and teardown: setup_s on prefetch-par (baselines on
       the pool), wall_s on prefetch-par (closing the train pool while
       the novel pool is live) *)
    ("study.create_s", "s");
    ("study.prepare_s", "s");
    ("study.baseline_s", "s");
    ("study.close_s", "s");
    (* the GP loop outside evaluation: cand_per_s everywhere *)
    ("evolve.gen_p50_s", "s");
    ("evolve.self_s", "s");
    (* canonicalize, digest, lookup: cand_per_s on sched-seq *)
    ("evaluator.requests", "count");
    ("evaluator.memo_hits", "count");
    ("evaluator.disk_hits", "count");
    ("evaluator.misses", "count");
    ("evaluator.hit_ratio", "ratio");
    ("evaluator.self_s", "s");
    (* the pool: wall_s on prefetch-par; no change on sched-seq *)
    ("parmap.batch_wall_s", "s");
    ("parmap.utilization", "ratio");
    ("parmap.queue_wait_p50_s", "s");
    ("parmap.dispatch_p50_s", "s");
    ("parmap.chunk_p50", "count");
    ("parmap.steals", "count");
    ("parmap.spawn_s", "s");
    ("parmap.worker_rss_mb", "MB");
    (* compile passes: wall_s on sched-seq, a small share elsewhere *)
    ("compile.calls", "count");
    ("compile.copy_s", "s");
    ("compile.prefetch_s", "s");
    ("compile.hyperblock_s", "s");
    ("compile.regalloc_s", "s");
    ("compile.sched_s", "s");
    ("compile.layout_s", "s");
    ("compile.hb_regions_formed", "count");
    ("compile.spills", "count");
    ("compile.prefetches_inserted", "count");
    (* simulation sharing and the simulator: wall_s on sched-seq and
       prefetch-par *)
    ("simcache.calls", "count");
    ("simcache.artifact_hits", "count");
    ("simcache.replays", "count");
    ("simcache.simulations", "count");
    ("simcache.hit_ratio", "ratio");
    ("simcache.self_s", "s");
    ("simulate.full_s", "s");
    ("simulate.replay_s", "s");
    ("simulate.minstr_s", "Minstr/s");
    ("simulate.timing_share", "ratio");
    (* serve round trip and daemon: wall_s and cand_per_s on hb-serve *)
    ("serve.startup_s", "s");
    ("serve.dial_s", "s");
    ("serve.requests", "count");
    ("serve.tasks_per_request", "count");
    ("serve.rtt_p50_ms", "ms");
    ("serve.rtt_p90_ms", "ms");
    ("serve.daemon_rss_mb", "MB");
    ("serve.store_hits", "count");
    ("serve.evaluated", "count");
    ("serve.coalesced", "count");
    ("serve.batched", "count");
    ("serve.dispatches", "count");
    ("serve.max_queue_depth", "count");
    ("serve.rejected", "count");
    ("serve.hit_ratio", "ratio");
    (* the store after drain: setup_s on hb-serve, at the restart *)
    ("shardstore.open_s", "s");
    ("shardstore.entries", "count");
    ("shardstore.find_ns", "ns");
    ("shardstore.evictions", "count");
    (* the tracing itself *)
    ("trace.overhead_s", "s");
    ("trace.unattributed_s", "s");
  ]

let valid_name n =
  n <> ""
  && String.length n <= 64
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       n
  && (match n.[0] with
     | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true
     | _ -> false)

(* The result line: every metric of [table] by name, with its unit; a
   metric missing from [values] is a bug in this benchmark. *)
let result_json ~correct ~attempted ~failed table values =
  let open Gp.Telemetry in
  Obj
    [
      ("correct", Bool correct);
      ("attempted", Int attempted);
      ("failed", Int failed);
      ( "metrics",
        Obj
          (List.map
             (fun (name, unit) ->
               match List.assoc_opt name values with
               | Some v -> (name, Obj [ ("value", Float v); ("unit", String unit) ])
               | None -> invalid_arg ("perfbench: metric not measured: " ^ name))
             table) );
    ]
