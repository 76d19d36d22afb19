(** Structured diagnostics of the [dsm_lint] static analyses.

    Every finding carries the program it concerns, a severity, and a
    typed payload naming the array, the synchronization region (by the
    traversal indices of its opening and closing sync statements, as in
    {!Dsm_compiler.Access}), the processors involved and the offending
    ranges. Ranges are reported twice: as byte ranges under the
    synthetic base-0 per-array layout, and pretty-printed as linear
    (column-major) element indices. *)

type severity = Info | Warning | Error

type race_kind = Write_write | Read_write

type kind =
  | Race of {
      array : string;
      region : int * int;  (** (after_sync, before_sync) indices *)
      race : race_kind;
      p : int;  (** first accessor (the reader for {!Read_write}) *)
      q : int;  (** second accessor (always a writer) *)
      p_section : string;  (** [p]'s concrete section, paper notation *)
      q_section : string;
      overlap : Dsm_rsd.Range.t;  (** overlapping byte ranges, base 0 *)
      inexact : bool;
          (** an involved summary is inexact (conditional or coupled
              subscripts): the overlap is possible, not proved *)
    }
  | Missing_validate of {
      array : string;
      region : int * int;
      p : int;
      uncovered : Dsm_rsd.Range.t;
          (** data [p] can fetch in the region that no inserted
              [Validate]/[Validate_w_sync]/[Push] covers *)
    }
  | Bad_all_validate of {
      sync : int;
      array : string;
      reason : string;
          (** why the [_ALL] access type is unsound here (inexact
              section, non-contiguous, not fully written, exposed
              reads) *)
    }
  | Illegal_push of {
      sync : int;
      array : string;
      dep : [ `Anti | `Output ];
      p : int;
      q : int;
      overlap : Dsm_rsd.Range.t;
    }
  | Push_overreach of {
      sync : int;
      array : string;
      src : int;
      dst : int;
      excess : Dsm_rsd.Range.t;
          (** pushed data the receiver's next region never reads *)
    }
  | Push_unwritten of {
      sync : int;
      array : string;
      p : int;
      excess : Dsm_rsd.Range.t;
          (** declared write section not written in the preceding
              region *)
    }
  | Dead_validate of { sync : int; array : string }
  | Duplicate_validate of {
      sync : int;
      array : string;
      overlap : Dsm_rsd.Range.t;
    }
  | Uncovered_access of {
      p : int;
      page : int;
      epoch : int;
      write : bool;
      array : string option;  (** owning array, when identifiable *)
    }
  | Structure of { reason : string }

type t = { severity : severity; program : string; kind : kind }

val make : severity -> program:string -> kind -> t
val is_error : t -> bool

val exit_code : ?strict:bool -> t list -> int
(** 0 when nothing above {!Info} was reported (or, without [strict],
    nothing above {!Warning}); 1 for warnings under [strict]; 2 for any
    {!Error}. *)

val sort : t list -> t list
(** Most severe first, stable within a severity. *)

val pp : Format.formatter -> t -> unit
val pp_report : Format.formatter -> t list -> unit
(** The sorted diagnostics followed by a one-line summary. *)
