(** Barriers and locks, with the paper's piggy-backing extensions.

    Timing is calibrated against Section 5 of the paper: with the default
    {!Dsm_sim.Config}, an 8-processor barrier costs a client 893 µs and a
    free remote lock acquisition 427 µs.

    {b Barrier}: arrival messages carry the processor's new write notices
    (and any pending [Validate_w_sync] section requests) to the master;
    the master merges and redistributes on the departure messages. Pending
    section requests are answered at departure ({!Fetch.answer_barrier}) —
    by a broadcast when the homeless run-time detects that all requesters
    want the same data from a single producer (Section 3.2.1).

    {b Lock}: requests go to the lock's static manager and are forwarded to
    the holder; the grant message carries the write notices of the
    releaser's happens-before history and the answers to piggy-backed
    section requests ({!Fetch.answer_grant}). Queued requests are granted
    in virtual-time arrival order.

    Both are shared by every backend; the backend's [b_release] closes the
    interval and its [b_departure] hook runs once per barrier at
    quiescence. *)

val barrier : Types.t -> unit
(** Release, arrive, wait for everyone, depart: pull the merged write
    notices, roll back partially pushed pages (full consistency is
    restored at every global synchronization, Section 3.1.2), and answer
    piggy-backed section requests. *)

val lock_acquire : Types.t -> int -> unit
(** Acquire the lock, receiving the releaser's happens-before write notices
    on the grant; consumes any pending [Validate_w_sync] requests. *)

val lock_release : Types.t -> int -> unit
(** Release locally (no message); grant to the earliest queued requester,
    if any.
    @raise Invalid_argument if the caller does not hold the lock. *)
