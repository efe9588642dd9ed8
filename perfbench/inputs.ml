type study = {
  kind : Driver.Study.kind;
  benches : string list;
  params : Gp.Params.t;
}

type workload = Sched_seq | Prefetch_par | Hb_serve

let workloads =
  [ ("sched-seq", Sched_seq); ("prefetch-par", Prefetch_par);
    ("hb-serve", Hb_serve) ]

let why = function
  | Sched_seq ->
    "sequential reference path where compile and simulation split the work; the only workload with trace replay, and it bypasses the pool, serve and the store"
  | Prefetch_par ->
    "simulation-bound evaluations dispatched over a pool as wide as the detected cores; compile is a small share and the evolved pass runs first"
  | Hb_serve ->
    "cheap hyperblock evaluations served by a restarted metaopt serve daemon to two closed-loop clients, so round trips, coalescing and the store do the work"

let cores () = max 1 (Domain.recommended_domain_count ())

(* A deterministic stream of draws for (seed, rep, salt). *)
let rng ~seed i salt = Random.State.make [| 0x5eed; seed; i; salt |]

let gp_seed st = Random.State.bits st land 0xFFFFFF

let params ~pop ~gens rng_seed =
  { Gp.Params.scaled with population_size = pop; generations = gens; rng_seed }

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

type rep =
  | Local of study
  | Served of { clients : study list list; jobs : int }

let backend = function
  | Sched_seq -> `Seq
  | Prefetch_par | Hb_serve -> Driver.Study.default_config.Driver.Study.backend

let jobs = function Sched_seq -> 1 | Prefetch_par | Hb_serve -> cores ()

let rep w ~seed i =
  let salt = match w with Sched_seq -> 1 | Prefetch_par -> 2 | Hb_serve -> 3 in
  let st = rng ~seed i salt in
  match w with
  | Sched_seq ->
    Local
      { kind = Driver.Study.Sched_study;
        benches = Benchmarks.Registry.hyperblock_train;
        params = params ~pop:60 ~gens:12 (gp_seed st) }
  | Prefetch_par ->
    Local
      { kind = Driver.Study.Prefetch_study;
        benches = Benchmarks.Registry.prefetch_train;
        params = params ~pop:40 ~gens:8 (gp_seed st) }
  | Hb_serve ->
    (* Both clients walk the same seeded bench order in step, so their
       loads stay balanced.  Half the benches share their GP seed across
       clients (identical requests: store hits and coalesced digests);
       the rest get a seed per client.  The second half of each list
       begins with one study the other client ran in the first half, so
       after the daemon's restart it is answered from the store. *)
    let study bench seed =
      { kind = Driver.Study.Hyperblock_study; benches = [ bench ];
        params = params ~pop:24 ~gens:6 seed }
    in
    let order = shuffle st Benchmarks.Registry.hyperblock_specialize in
    let pairs =
      List.mapi
        (fun i b ->
          let a = gp_seed st in
          (b, a, if i mod 2 = 0 then a else gp_seed st))
        order
    in
    let a = List.map (fun (b, s, _) -> study b s) pairs in
    let b = List.map (fun (b, _, s) -> study b s) pairs in
    let half = List.length order / 2 in
    let client own other =
      List.filteri (fun i _ -> i < half) own
      @ (List.nth other 1 :: List.filteri (fun i _ -> i >= half) own)
    in
    let clients =
      List.filteri (fun k _ -> k < cores ()) [ client a b; client b a ]
    in
    Served { clients; jobs = cores () }

let describe_study s =
  Printf.sprintf "%s[%s]pop%dx%d/seed%d" (Driver.Study.kind_name s.kind)
    (String.concat "," s.benches) s.params.Gp.Params.population_size
    s.params.Gp.Params.generations s.params.Gp.Params.rng_seed

let describe = function
  | Local s -> describe_study s
  | Served { clients; jobs } ->
    Printf.sprintf "daemon jobs=%d; %s" jobs
      (String.concat "; "
         (List.mapi
            (fun k l ->
              Printf.sprintf "client%d: %s" k
                (String.concat " " (List.map describe_study l)))
            clients))
