(** Diffs: run-length encodings of the modifications made to a page
    (reference [8] of the paper, Carter et al.).

    A diff is created by comparing a page against its twin (the copy made at
    the first write) and applied by overlaying its segments onto another copy
    of the page. *)

type t
(** Disjoint (offset, payload) segments, sorted by offset. Stored flat:
    one byte string of 32-bit (offset, length) pairs and one of the
    payloads back to back, so a diff is two allocations however many
    segments it has.

    Invariant, kept by every constructor below: offsets are at least 0,
    and each segment ends at or before the next one starts. The segments
    of {!create}, {!merge} and {!of_range} are non-empty; only {!full} of
    an empty page has an empty one. {!apply} relies on this to check a
    diff's bounds once. *)

val empty : t
val is_empty : t -> bool

val create : twin:Bytes.t -> current:Bytes.t -> t
(** Word-granularity comparison of twin and current page contents. *)

val changed_slots : twin:Bytes.t -> current:Bytes.t -> slot_size:int -> int list
(** The indices, ascending, of the [slot_size]-byte slots of the page in
    which twin and current contents differ. The page splits into slots of
    a multiple of 8 bytes; each is compared a 64-bit word at a time and
    left at its first difference. Raises [Invalid_argument] when the
    lengths differ or [slot_size] is not a multiple of 8 dividing them. *)

val full : Bytes.t -> t
(** A "diff" carrying the entire page verbatim: produced at a release for
    pages validated with [WRITE_ALL] access (no twin exists; the whole page
    content stands in for the modifications, superseding older diffs). *)

val of_range : Bytes.t -> off:int -> len:int -> t
(** A diff carrying the page subrange [\[off, off+len)] verbatim. *)

val apply : t -> Bytes.t -> unit
(** Overlay the segments onto the destination page. Raises
    [Invalid_argument] and leaves the page untouched when a segment
    falls outside it. By the invariant on {!t}, checking the first
    offset and the last segment's end is enough. *)

val merge : t -> t -> t
(** [merge older newer]: a diff equivalent to applying [older] then
    [newer]. Its segments are the maximal runs of bytes either one covers
    (segments that touch fuse), so the layout depends only on the covered
    bytes; the cost is linear in the two diffs' segments and payloads, not
    in the page size. *)

val size_bytes : t -> int
(** Payload bytes (what a diff message carries). *)

val nsegments : t -> int

val segments : t -> (int * string) list
(** The (offset, payload) segments, ascending by offset. *)

val covers_page : t -> page_size:int -> bool
(** Whether the diff overwrites every byte of the page. *)

val pp : Format.formatter -> t -> unit
