(** Replay of the page accesses recorded in a protocol trace.

    The run-time emits an event the first time a page is touched in a
    state that needs protocol work: {!Event.kind.Page_fault} for an
    access to an invalid (or read-only, for a write) page, and
    {!Event.kind.Twin} for the first write to a page in an interval.
    Those events are exactly the observable subset of the program's page
    accesses, which makes them the dynamic side of the [dsm_lint]
    static-vs-dynamic differential check: every replayed access must fall
    inside the compiler's static access summary, or the summary is
    unsound. *)

type access = {
  proc : int;
  page : int;
  write : bool;  (** write fault or twin creation *)
  epoch : int;  (** barrier departures [proc] had completed beforehand *)
  time : float;  (** virtual clock of [proc] at the event *)
}

val accesses : Event.t list -> access list
(** The page accesses of a trace, in emission order. Events must be in
    per-processor emission order ({!Sink.events} and {!Sink.proc_events}
    both qualify). *)

val fold : ('a -> access -> 'a) -> 'a -> Event.t list -> 'a
(** Fold over the page accesses without materializing the list. *)
