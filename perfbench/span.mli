(** In-memory wall-clock spans for the benchmark's traced runs.

    Each span records its name, start, end, parent span and a request id
    shared by every span of one request.  Spans are kept in memory and
    read out when the run ends; a disabled recorder records nothing and
    only runs the wrapped function.  Safe to use from several systhreads:
    each thread has its own stack of open spans. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** [-1] for a top-level span *)
  req : int;  (** request id, [-1] when the span belongs to none *)
  start : float;
  mutable stop : float;
}

type t

val create : enabled:bool -> t

val enter : t -> ?req:int -> string -> int
(** Open a span under the calling thread's innermost open span; returns
    its id ([-1] when disabled).  [req] defaults to the parent's. *)

val leave : t -> int -> unit
(** Close the span with this id (and any span opened inside it that is
    still open). *)

val with_span : t -> ?req:int -> string -> (unit -> 'a) -> 'a

val spans : t -> span list
(** Every closed span, in opening order. *)

val self_time : start:float -> stop:float -> (float * float) list -> float
(** [self_time ~start ~stop children] is [stop - start] minus the length
    of the union of the child intervals, each clipped to
    [\[start, stop\]]. *)

val self_times : span list -> (string * float) list
(** Total self time per span name, sorted by name. *)

val total : span list -> string -> float
(** Summed duration of the spans with this name. *)

val durations : span list -> string -> float list
(** Durations of the spans with this name, in opening order. *)
