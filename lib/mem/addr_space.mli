(** Layout of the simulated shared virtual address space.

    A single shared segment (the paper's Fortran programs put all shared
    variables in one common block, [shared_common]); arrays are allocated by
    a bump allocator. Allocation only defines the layout — the data lives in
    the per-processor page tables. *)

type t

val create : page_size:int -> t

val alloc : t -> name:string -> ?page_align:bool -> bytes:int -> unit -> int
(** Reserve [bytes] and return the base address. [page_align] defaults to
    false: the paper discusses false sharing precisely because array
    boundaries need not coincide with page boundaries. 8-byte alignment is
    always guaranteed. *)

val alloc_array :
  t -> name:string -> ?page_align:bool -> elem_size:int -> int array ->
  Dsm_rsd.Section.array_info
(** Allocate a (column-major) array with the given per-dimension extents and
    return its layout record. *)

val n_pages : t -> int
(** Pages in use: determines fault/mprotect cost (Section 5 of the paper). *)

val arrays : t -> Dsm_rsd.Section.array_info list
(** All arrays allocated so far, in allocation order. *)
