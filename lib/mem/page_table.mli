(** Per-processor page table for the simulated shared segment.

    This is the software stand-in for the hardware MMU: every shared load
    and store consults the page's protection bits, and the DSM protocol
    manipulates them exactly as TreadMarks manipulates [mprotect] state.

    Frames are demand-zero, as on the paper's SP/2: an invalidation of a
    page the processor never held creates a {e frameless} record that
    holds protection state only, and the zero frame is allocated when data
    first lands in the page. Invariant: a frameless page is [No_access]
    and has no twin, so a readable or writable page always has a frame and
    an access that passes the protection check may touch [data]
    directly.

    Twins are recycled: {!drop_twin} hands the buffer back to the table
    and {!make_twin} blits into a spare one, keeping at most a fixed
    number of spares. Invariant: a buffer is the twin of at most one page
    and is never a spare while it is a twin, so nothing may keep a
    reference to a twin past its {!drop_twin}. *)

type prot =
  | No_access  (** invalid: any access faults *)
  | Read_only  (** valid: writes fault (write detection) *)
  | Read_write  (** valid and dirty-capable *)

type page = {
  mutable data : Bytes.t;
      (** the frame, [page_size] bytes; empty while the page is frameless.
          Read or write it only through a record returned by {!get}, or
          one whose protection is not [No_access]. *)
  mutable prot : prot;
  mutable twin : Bytes.t option;  (** copy made at the first write *)
}

type t

val create : page_size:int -> t

val get : t -> int -> page
(** Frame-backed page record for page number [n]; every data path goes
    through here. An absent page is created zero-filled and [Read_only]
    (all replicas start consistent: the segment is zero initialized); a
    frameless page gets its zero frame, keeping its protection. *)

val entry : t -> int -> page
(** Page record for page number [n], created as {!get} creates it when
    absent, but a frameless record stays frameless. For protection checks
    and changes that move no data (the load/store fast path). *)

val find : t -> int -> page option
(** The record of page [n] if one exists, frameless or not, without
    creating one: [Some _] exactly where {!get}, {!entry} or {!invalidate}
    ran before. *)

val invalidate : t -> int -> bool
(** Set page [n] to [No_access] — the protection-only entry a write
    notice uses. An existing frame keeps its contents (later diffs apply
    on top of them); an absent page becomes a frameless record. Returns
    whether the page was accessible before (an absent page counts as its
    initial readable zero copy). *)

val drop_frame : page -> unit
(** Discard the frame and the twin and make the page [No_access]: the
    record stays, its data is gone (the next {!get} sees zeros). *)

val frames : t -> int list
(** Page numbers backed by a frame, ascending. *)

val make_twin : t -> page -> unit
(** Snapshot the frame of a page of this table as its twin, in a spare
    buffer when one waits; a page that has a twin keeps it. *)

val drop_twin : t -> page -> unit
(** Discard the page's twin, keeping its buffer as a spare while fewer
    than the fixed bound wait. *)
