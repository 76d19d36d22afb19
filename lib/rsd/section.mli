(** Array sections: a regular section descriptor applied to a concrete
    shared array layout, translated to contiguous byte-address ranges.

    The augmented run-time interface (Figure 3 of the paper) takes sections
    as parameters; per Section 3.3, the implementation works on the
    translated contiguous address ranges, which is what {!ranges} yields. *)

type array_info = {
  name : string;
  base : int;  (** byte address of element (0,...,0) in the shared space *)
  elem_size : int;  (** bytes per element *)
  extents : int array;
      (** per-dimension sizes; Fortran layout: the {e first} dimension is
          contiguous in memory *)
}

type t = { arr : array_info; rsd : Rsd.t }

val make : array_info -> Rsd.t -> t

val whole : array_info -> t
(** The section covering the entire array, 0-based indices. *)

val addr_of_index : array_info -> int array -> int
(** Byte address of an element (0-based indices, column-major). *)

val size_bytes : t -> int

val ranges : t -> Range.t
(** Contiguous byte ranges covered by the section. Adjacent runs are
    merged, so a section covering whole consecutive columns becomes a single
    range. *)

val inter_ranges : t -> t -> Range.t
(** Byte ranges in the intersection of two sections ({!Range.inter} of their
    range translations); used by [Push] to compute what to send. *)

val union_ranges : t list -> Range.t
(** Byte ranges covered by any of the sections: the contiguous address
    ranges the run-time receives for a section list (Section 3.3 of the
    paper), built with one sort over all the sections' intervals. *)

val is_contiguous : t -> bool

val pp : Format.formatter -> t -> unit
(** Paper notation: [name\[lo:hi, lo:hi\]]. *)
