(** Explicitly-parallel loop IR: the abstract syntax the Parascope-style
    analysis and transformation operate on.

    Programs are SPMD: every processor executes the same statement list,
    with processor-dependent bindings (typically the partition bounds
    [begin]/[end]) supplied by {!field-proc_bindings}. Shared arrays live in
    the DSM; scalars named in the environment are private. *)

type aref = { aname : string; aidx : Lin.t list }
(** Array reference with affine indices (first index contiguous,
    Fortran-style). *)

type binop = Add | Sub | Mul | Div

type rexpr =
  | Fconst of float
  | Scalar of string  (** private scalar variable *)
  | Load of aref
  | Bin of binop * rexpr * rexpr

type access = Dsm_tmk.Tmk.access

type stmt =
  | For of loop
  | If_lt of Lin.t * Lin.t * stmt list * stmt list
      (** [if a < b then ... else ...] on index expressions; conditionals
          are "possible fetch points" in the paper's analysis (Section 4.1)
          and make the enclosing region's sections inexact here *)
  | Assign of aref * rexpr
  | Set_scalar of string * rexpr  (** private scalar assignment *)
  | Barrier of int
  | Lock_acquire of int
  | Lock_release of int
  | Validate of vcall  (** inserted by the transformation *)
  | Validate_w_sync of vcall
  | Push of push_call

and loop = { ivar : string; lo : Lin.t; hi : Lin.t; body : stmt list }

and vcall = {
  vsections : (string * Sym_rsd.t) list;
  vaccess : access;
  vasync : bool;
}

and push_call = {
  pread : (string * Sym_rsd.t) list;  (** read after, in terms of [p] *)
  pwrite : (string * Sym_rsd.t) list;  (** written before, in terms of [p] *)
}

type program = {
  pname : string;
  params : (string * int) list;  (** problem-size parameters, e.g. M *)
  arrays : (string * Lin.t list) list;  (** shared arrays and extents *)
  privates : (string * Lin.t list) list;
      (** per-processor private arrays (scratch); outside the analysis'
          variable set V and outside the DSM *)
  proc_bindings : nprocs:int -> p:int -> (string * int) list;
      (** processor-dependent loop-invariant variables ([begin], [end], [p]) *)
  body : stmt list;
}

val is_sync : stmt -> bool

val array_extents : program -> string -> Lin.t list
(** @raise Not_found for an unknown array. *)

val probe_env : program -> nprocs:int -> string -> int
(** Sample binding used by the symbolic analysis to test comparisons it
    cannot prove: parameters at their declared values, processor-dependent
    variables at processor 1's values. *)
