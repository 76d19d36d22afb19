(** The augmented run-time interface of Section 3 of the paper. *)

val validate :
  Types.t -> ?async:bool -> Dsm_rsd.Section.t list -> Types.access -> unit
(** [Validate(section, access_type)] (Figure 3). The consistency-preserving
    access types ([READ], [WRITE], [READ&WRITE]) fetch and apply the missing
    diffs — aggregated, one request per writer — and set protections; the
    [_ALL] types additionally disable write detection for the section
    (exact compiler analysis required). With [async], only the fetch
    requests are sent and the page-fault handler completes the work at the
    first access (Section 3.2.3). Each page goes through the policy
    governing it under the system's backend. *)

val validate_w_sync :
  Types.t -> ?async:bool -> Dsm_rsd.Section.t list -> Types.access -> unit
(** Like {!validate}, but the request for diffs is piggy-backed on the next
    synchronization operation (Section 3.1.1). *)

val push :
  Types.t ->
  read_sections:Dsm_rsd.Section.t list array ->
  write_sections:Dsm_rsd.Section.t list array ->
  unit
(** [Push(r_section[0..N-1], w_section[0..N-1])] (Figure 3): replaces a
    barrier. Each processor sends [w_section(me) inter r_section(i)] to [i] and
    receives its own intersections in place (no diff space). Only the
    pushed sections are made consistent; everything else may remain
    inconsistent until the next global synchronization. Synchronous only,
    as in the paper's implementation (Section 3.3). {!Fetch.release}
    closes the sender's interval; pages under the invalidate protocol are
    received through {!Invalidate.push_received}. *)
