(** Typed access to the simulated shared segment: the DSM's load/store
    interface.

    Every access consults the page's protection bits and enters the
    selected coherence backend's fault handlers (via {!Types.backend_ops})
    exactly where a hardware MMU would deliver SIGSEGV: a read of an
    invalid page triggers the backend's read fault (diff or home-page
    fetch), the first write to a write-protected page its write fault
    (twin creation, write detection). Elements are 4- or 8-byte aligned
    and never straddle a page boundary. *)

val get_f64 : Types.t -> int -> float
val set_f64 : Types.t -> int -> float -> unit
val get_i64 : Types.t -> int -> int
val set_i64 : Types.t -> int -> int -> unit

val get_raw64 : Types.t -> int -> int64
(** Raw 64-bit load through the read-fault path (little-endian), without
    interpreting the element as float or int: used for content digests. *)

val get_i32 : Types.t -> int -> int
val set_i32 : Types.t -> int -> int -> unit

(** {1 Spans}

    A span moves [n] consecutive 8-byte elements starting at byte address
    [addr] between the segment and [a.(pos) .. a.(pos + n - 1)] of a
    caller-owned array, checking protection once per page rather than
    once per element. The contract is fault equivalence with the element
    loop: the span enters its pages in ascending address order, each
    through the fault kind the loop would take ({!page_for_read} for
    loads, {!page_for_write} for stores, both in that order for an
    update), so faults, twins, messages, statistics, trace events and
    virtual time are exactly those of
    [for e = 0 to n - 1 do a.(pos + e) <- get_f64 t (addr + (8 * e)) done]
    (or the loop of the matching element accessor, named below). A kernel
    that replaces several interleaved element loops by spans keeps that
    equivalence only if it issues the spans in the order the loops first
    touch their pages. Raise [Invalid_argument] if [pos .. pos + n - 1]
    is not within [a].

    Float elements move between a page frame and a [float array] through
    a [floatarray] view of the frame's bytes: one 8-byte load or store
    that keeps every bit, NaN payloads included, so
    [Int64.bits_of_float (get_f64 t addr) = get_raw64 t addr]. Integer
    elements are the 64-bit little-endian words of {!get_i64}. *)

val read_f64s : Types.t -> int -> float array -> int -> int -> unit
(** [read_f64s t addr dst pos n]: loads through the read-fault path; the
    {!get_f64} loop. *)

val write_f64s : Types.t -> int -> float array -> int -> int -> unit
(** [write_f64s t addr src pos n]: stores through the write-fault path;
    the {!set_f64} loop. *)

val read_i64s : Types.t -> int -> int array -> int -> int -> unit
(** [read_i64s t addr dst pos n]: the {!get_i64} loop. *)

val fill_i64s : Types.t -> int -> int -> int -> unit
(** [fill_i64s t addr n v] stores [v] into the [n] elements from [addr]
    on: the [set_i64 t (addr + (8 * e)) v] loop. Raise [Invalid_argument]
    if [n < 0]. *)

val add_i64s : Types.t -> int -> int array -> int -> int -> unit
(** [add_i64s t addr src pos n] adds [src.(pos + e)] to element [e]: the
    loop [set_i64 t ad (get_i64 t ad + src.(pos + e))], which enters each
    page through the read path and then the write path. *)

(** 1-dimensional float array view. *)
module F64_1 : sig
  type t = Dsm_rsd.Section.array_info

  val addr : t -> int -> int
  val get : Types.t -> t -> int -> float
  val set : Types.t -> t -> int -> float -> unit
  val length : t -> int

  val section : t -> int * int * int -> Dsm_rsd.Section.t
  (** [(lo, hi, stride)], inclusive element indices. *)
end

(** 2-dimensional float array view; column-major (the first index is
    contiguous, as in the paper's Fortran programs). *)
module F64_2 : sig
  type t = Dsm_rsd.Section.array_info

  val addr : t -> int -> int -> int
  val get : Types.t -> t -> int -> int -> float
  val set : Types.t -> t -> int -> int -> float -> unit

  val rmw : Types.t -> t -> int -> int -> (float -> float) -> unit
  (** Read-modify-write with a single page lookup. *)

  (** Column spans (see {!read_f64s}): rows [lo .. lo + len - 1] of column
      [j], row [i] at index [i] of the caller's buffer. *)

  val read_col :
    Types.t -> t -> int -> lo:int -> len:int -> float array -> unit

  val write_col :
    Types.t -> t -> int -> lo:int -> len:int -> float array -> unit

  val axpy_col :
    Types.t -> t -> int -> lo:int -> len:int -> float array -> float -> unit
  (** [axpy_col t a j ~lo ~len x s] sets [a(i, j) <- a(i, j) -. (x.(i) *. s)]
      for the rows of the span, through the write-fault path: the fault
      behaviour of the {!rmw} loop over those rows. *)

  val dot_col : Types.t -> t -> int -> lo:int -> len:int -> float array -> float
  (** [dot_col t a j ~lo ~len x] is the sum of [x.(i) *. a(i, j)] over the
      rows of the span, accumulated from [0.0] in ascending row order,
      through the read-fault path. *)

  val section : t -> int * int * int -> int * int * int -> Dsm_rsd.Section.t
end

(** 3-dimensional float array view. *)
module F64_3 : sig
  type t = Dsm_rsd.Section.array_info

  val addr : t -> int -> int -> int -> int
  val get : Types.t -> t -> int -> int -> int -> float
  val set : Types.t -> t -> int -> int -> int -> float -> unit

  val section :
    t -> int * int * int -> int * int * int -> int * int * int ->
    Dsm_rsd.Section.t
end

(** 1-dimensional integer (boxed as 64-bit) array view. *)
module I64_1 : sig
  type t = Dsm_rsd.Section.array_info

  val addr : t -> int -> int
  val get : Types.t -> t -> int -> int
  val set : Types.t -> t -> int -> int -> unit
  val section : t -> int * int * int -> Dsm_rsd.Section.t
end
