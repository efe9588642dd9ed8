(* The hb-serve workload: a [metaopt serve] daemon (this executable
   re-executed as [serve]) and closed-loop client connections, one
   systhread each, running their study lists back to back.  Halfway
   through, the daemon is stopped with SIGTERM and restarted on the same
   store, so the second half reads what the first half wrote.  The daemon
   is always reaped and its socket and store removed, failure included. *)

module S = Driver.Study

let now = Unix.gettimeofday

(* --- The daemon ------------------------------------------------------- *)

(* [serve SOCK STORE JOBS METRICS]: the daemon side of this executable. *)
let serve_main = function
  | [ socket; store; jobs; metrics ] ->
    let pool =
      Gp.Parmap.pool ~backend:S.default_config.S.backend
        ~jobs:(int_of_string jobs) ~retries:S.default_config.S.retries ()
    in
    Serve.Server.run
      { (Serve.Server.default_config ~socket) with
        Serve.Server.pool; cache_dir = Some store; metrics_out = Some metrics }
  | _ ->
    prerr_endline "usage: perfbench serve SOCKET STORE JOBS METRICS";
    exit 2

type daemon = { pid : int; socket : string; metrics : string; ready_s : float }

(* Daemons not yet reaped; killed at exit whatever happens. *)
let live : (int, unit) Hashtbl.t = Hashtbl.create 2

let rec reap pid =
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap pid
  | exception Unix.Unix_error _ -> ()

let kill_all () =
  Hashtbl.iter
    (fun pid () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap pid)
    live;
  Hashtbl.reset live

let () = at_exit kill_all

let start ~dir ~jobs k =
  let socket = Filename.concat dir (Printf.sprintf "d%d.sock" k) in
  let metrics = Filename.concat dir (Printf.sprintf "d%d.json" k) in
  let store = Filename.concat dir "store" in
  let t0 = now () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "serve"; socket; store; string_of_int jobs; metrics |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  Hashtbl.replace live pid ();
  (* Accepting means a client completes the version handshake. *)
  let rec wait () =
    if now () -. t0 > 60.0 then failwith "serve daemon did not start in 60 s";
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ ->
      Hashtbl.remove live pid;
      failwith "serve daemon exited while starting");
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match
      Unix.connect fd (Unix.ADDR_UNIX socket);
      Serve.Protocol.client_handshake fd
    with
    | () -> Unix.close fd
    | exception _ ->
      Unix.close fd;
      Unix.sleepf 0.002;
      wait ()
  in
  wait ();
  { pid; socket; metrics; ready_s = now () -. t0 }

(* SIGTERM, wait for the drain (SIGKILL after 60 s), and read the summary
   the daemon wrote on its way out. *)
let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let t0 = now () in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () -. t0 < 60.0 ->
      Unix.sleepf 0.002;
      wait ()
    | 0, _ ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap d.pid;
      false
    | _, Unix.WEXITED 0 -> true
    | _ -> false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let clean = wait () in
  Hashtbl.remove live d.pid;
  let summary =
    match Gp.Telemetry.json_of_string (Proc.read_file d.metrics) with
    | Ok j -> j
    | Error _ -> Gp.Telemetry.Null
  in
  (clean, summary)

(* --- The clients ------------------------------------------------------ *)

type wire = {
  lock : Mutex.t;
  mutable dials : (float * float) list;  (* start, stop *)
  mutable rtt_s : float list;
  mutable tasks : int;
  mutable digests : string list;
}

let new_wire () =
  { lock = Mutex.create (); dials = []; rtt_s = []; tasks = 0; digests = [] }

let locked w f =
  Mutex.lock w.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock w.lock) f

(* The serve client's dialer, with every dial and Eval round trip timed
   from the client side. *)
let install_dialer sp w =
  S.set_remote_dialer (fun ~socket desc ->
      let t0 = now () in
      let h =
        Span.with_span sp "serve.dial" (fun () -> Serve.Client.dial ~socket desc)
      in
      let t1 = now () in
      locked w (fun () -> w.dials <- (t0, t1) :: w.dials);
      {
        h with
        S.rh_eval =
          (fun dataset ->
            let f = h.S.rh_eval dataset in
            fun batch ->
              let t0 = now () in
              let out = Span.with_span sp "serve.eval" (fun () -> f batch) in
              let d = now () -. t0 in
              locked w (fun () ->
                  w.rtt_s <- d :: w.rtt_s;
                  w.tasks <- w.tasks + Array.length batch;
                  Array.iter (fun (dg, _, _) -> w.digests <- dg :: w.digests) batch);
              out);
      })

type rep = {
  runs : Study_run.run list;  (* every client's studies *)
  failures : int;  (* studies that raised *)
  wall_s : float;
  setup_s : float;
      (* both daemon starts: start-to-accepting plus the first client
         dial *)
  starts_s : float list;  (* start-to-accepting of each daemon start *)
  daemon_rss_mb : float;
  summaries : Gp.Telemetry.json list;
  dials : (float * float) list;  (* client dials: start, stop *)
  rtt_s : float list;  (* client-measured Eval round trips *)
  tasks : int;  (* tasks those round trips carried *)
  digests : string list;  (* their store keys *)
  store : string;
}

(* A client's list splits at the daemon restart; with an odd length the
   second half is the longer. *)
let halves l =
  let n = List.length l / 2 in
  (List.filteri (fun i _ -> i < n) l, List.filteri (fun i _ -> i >= n) l)

let run ~spans ~track ~dir ~jobs (clients : Inputs.study list list) : rep =
  let w = new_wire () in
  install_dialer spans w;
  let lock = Mutex.create () in
  let runs = ref [] and failures = ref 0 in
  let rss = ref 0.0 and starts = ref [] and summaries = ref [] in
  let setup = ref 0.0 in
  let t0 = now () in
  let phase k lists =
    let d = start ~dir ~jobs k in
    starts := d.ready_s :: !starts;
    let cfg = { S.default_config with S.remote = Some d.socket } in
    let t_phase = now () in
    let client i studies =
      Span.with_span spans ~req:i "client" (fun () ->
          List.iter
            (fun s ->
              match Study_run.run ~spans ~track cfg s with
              | r -> Mutex.protect lock (fun () -> runs := r :: !runs)
              | exception e ->
                Printf.eprintf "hb-serve: study failed: %s\n%!"
                  (Printexc.to_string e);
                Mutex.protect lock (fun () -> incr failures))
            studies)
    in
    let threads = List.mapi (fun i l -> Thread.create (client i) l) lists in
    List.iter Thread.join threads;
    (* Set-up of this start: start-to-accepting, then the first client
       dial (the daemon is idle for it), after which a candidate can be
       evaluated. *)
    let first_dial =
      List.fold_left
        (fun acc (a, b) ->
          if a < t_phase then acc
          else match acc with Some (a', _) when a' <= a -> acc | _ -> Some (a, b))
        None w.dials
    in
    setup :=
      !setup +. d.ready_s +. Option.fold ~none:0.0 ~some:(fun (a, b) -> b -. a) first_dial;
    rss := Float.max !rss (Proc.hwm_mb d.pid);
    let clean, summary = stop d in
    if not clean then incr failures;
    summaries := summary :: !summaries
  in
  let firsts, seconds = List.split (List.map halves clients) in
  phase 0 firsts;
  phase 1 seconds;
  let wall_s = now () -. t0 in
  let starts = List.rev !starts in
  {
    runs = List.rev !runs;
    failures = !failures;
    wall_s;
    setup_s = !setup;
    starts_s = starts;
    daemon_rss_mb = !rss;
    summaries = List.rev !summaries;
    dials = w.dials;
    rtt_s = List.rev w.rtt_s;
    tasks = w.tasks;
    digests = w.digests;
    store = Filename.concat dir "store";
  }

(* Sum of a daemon summary field over both starts. *)
let summary_int r field =
  List.fold_left
    (fun acc j ->
      match Gp.Telemetry.member field j with
      | Some (Gp.Telemetry.Int n) -> acc + n
      | _ -> acc)
    0 r.summaries

let summary_max r field =
  List.fold_left
    (fun acc j ->
      match Gp.Telemetry.member field j with
      | Some (Gp.Telemetry.Int n) -> max acc n
      | _ -> acc)
    0 r.summaries
