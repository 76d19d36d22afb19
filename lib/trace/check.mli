(** LRC invariant checker.

    Replays a trace and asserts the lazy-release-consistency protocol's
    correctness conditions against the happens-before order the events
    define: vector-clock monotonicity and merge-consistency, consecutive
    interval numbering, notice-before-data, invalidation of stale copies,
    in-order diff application (per writer, and per page within a fetch
    batch), the [applied <= known] watermark invariant, completion of every
    access miss by an unrestricted fetch (the "no read of a page with an
    unapplied happens-before-ordered write notice" rule, with lock-grant
    piggy-backing and Push/WRITE_ALL windows as the explicit relaxations),
    rollback discipline for partially pushed pages, and barrier epoch
    alternation. *)

type violation = {
  event : Event.t option;  (** offending event; [None] for end-of-trace *)
  rule : string;  (** stable rule identifier, e.g. ["vc-monotone"] *)
  detail : string;
}

val pp_violation : Format.formatter -> violation -> unit

val run : nprocs:int -> Event.t list -> violation list
(** Replay events (which must be in emission order and complete) and
    return all violations, oldest first; [[]] means the trace satisfies
    every invariant. *)

val run_sink : Sink.t -> violation list
(** {!run} over a sink's events. *)
