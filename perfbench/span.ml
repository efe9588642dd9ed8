type span = {
  id : int;
  name : string;
  parent : int;
  req : int;
  start : float;
  mutable stop : float;
}

type t = {
  on : bool;
  lock : Mutex.t;
  mutable next : int;
  mutable closed : span list;  (* newest first *)
  stacks : (int, span list) Hashtbl.t;  (* thread id -> open spans *)
}

let create ~enabled =
  { on = enabled; lock = Mutex.create (); next = 0; closed = [];
    stacks = Hashtbl.create 4 }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let stack_of t = Option.value ~default:[] (Hashtbl.find_opt t.stacks (Thread.id (Thread.self ())))

let enter t ?req name =
  if not t.on then -1
  else begin
    let start = Unix.gettimeofday () in
    locked t (fun () ->
        let stack = stack_of t in
        let parent, preq =
          match stack with p :: _ -> (p.id, p.req) | [] -> (-1, -1)
        in
        let s =
          { id = t.next; name; parent; req = Option.value ~default:preq req;
            start; stop = start }
        in
        t.next <- t.next + 1;
        Hashtbl.replace t.stacks (Thread.id (Thread.self ())) (s :: stack);
        s.id)
  end

let leave t id =
  if t.on && id >= 0 then begin
    let stop = Unix.gettimeofday () in
    locked t (fun () ->
        let rec pop = function
          | [] -> []
          | s :: rest ->
            s.stop <- stop;
            t.closed <- s :: t.closed;
            if s.id = id then rest else pop rest
        in
        let stack = stack_of t in
        if List.exists (fun s -> s.id = id) stack then
          Hashtbl.replace t.stacks (Thread.id (Thread.self ())) (pop stack))
  end

let with_span t ?req name f =
  if not t.on then f ()
  else begin
    let id = enter t ?req name in
    Fun.protect ~finally:(fun () -> leave t id) f
  end

let spans t =
  locked t (fun () ->
      List.sort (fun a b -> compare a.id b.id) t.closed)

let covered ~start ~stop intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a start and b = Float.min b stop in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  fst
    (List.fold_left
       (fun (acc, reach) (a, b) ->
         let a = Float.max a reach in
         if b > a then (acc +. (b -. a), b) else (acc, reach))
       (0.0, start) clipped)

let self_time ~start ~stop children =
  Float.max 0.0 (stop -. start -. covered ~start ~stop children)

let self_times spans =
  let kids = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace kids s.parent
          ((s.start, s.stop)
          :: Option.value ~default:[] (Hashtbl.find_opt kids s.parent)))
    spans;
  let acc = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self =
        self_time ~start:s.start ~stop:s.stop
          (Option.value ~default:[] (Hashtbl.find_opt kids s.id))
      in
      Hashtbl.replace acc s.name
        (self +. Option.value ~default:0.0 (Hashtbl.find_opt acc s.name)))
    spans;
  List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) acc [])

let durations spans name =
  List.filter_map
    (fun s -> if s.name = name then Some (s.stop -. s.start) else None)
    spans

let total spans name = List.fold_left ( +. ) 0.0 (durations spans name)
