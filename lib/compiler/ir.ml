type aref = { aname : string; aidx : Lin.t list }
type binop = Add | Sub | Mul | Div

type rexpr =
  | Fconst of float
  | Scalar of string
  | Load of aref
  | Bin of binop * rexpr * rexpr

type access = Dsm_tmk.Tmk.access

type stmt =
  | For of loop
  | If_lt of Lin.t * Lin.t * stmt list * stmt list
  | Assign of aref * rexpr
  | Set_scalar of string * rexpr
  | Barrier of int
  | Lock_acquire of int
  | Lock_release of int
  | Validate of vcall
  | Validate_w_sync of vcall
  | Push of push_call

and loop = { ivar : string; lo : Lin.t; hi : Lin.t; body : stmt list }

and vcall = {
  vsections : (string * Sym_rsd.t) list;
  vaccess : access;
  vasync : bool;
}

and push_call = {
  pread : (string * Sym_rsd.t) list;
  pwrite : (string * Sym_rsd.t) list;
}

type program = {
  pname : string;
  params : (string * int) list;
  arrays : (string * Lin.t list) list;
  privates : (string * Lin.t list) list;
  proc_bindings : nprocs:int -> p:int -> (string * int) list;
  body : stmt list;
}

let is_sync = function
  | Barrier _ | Lock_acquire _ | Lock_release _ | Push _ -> true
  | For _ | If_lt _ | Assign _ | Set_scalar _ | Validate _ | Validate_w_sync _
    ->
      false

let array_extents p name = List.assoc name p.arrays

let probe_env prog ~nprocs v =
  match List.assoc_opt v prog.params with
  | Some x -> x
  | None -> (
      let bindings = prog.proc_bindings ~nprocs ~p:(min 1 (nprocs - 1)) in
      match List.assoc_opt v bindings with
      | Some x -> x
      | None -> raise Not_found)
