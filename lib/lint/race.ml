module Range = Dsm_rsd.Range
open Dsm_compiler

let ranges_of prog ~nprocs ~p arr = function
  | None -> Range.empty
  | Some s -> Conc.ranges prog ~nprocs ~p arr s

let inexact_of = function None -> false | Some s -> not s.Sym_rsd.exact

let section_str prog ~nprocs ~p arr = function
  | None -> "<none>"
  | Some s ->
      Format.asprintf "%a" Dsm_rsd.Section.pp
        (Conc.section prog ~nprocs ~p arr s)

(* The lock, if any, whose critical section contains a region: the
   region was opened by its acquire. Accesses in two regions protected
   by the same lock are ordered by it and cannot race. *)
let protect syncs (r : Access.region) =
  match List.assoc_opt r.Access.after_sync syncs with
  | Some (Ir.Lock_acquire l) -> Some l
  | _ -> None

(* A region opened by a barrier (or by the Push that replaced one)
   starts a new epoch; lock-opened regions run concurrently with the
   rest of their epoch. *)
let opens_epoch syncs (r : Access.region) =
  match List.assoc_opt r.Access.after_sync syncs with
  | Some (Ir.Barrier _ | Ir.Push _) -> true
  | _ -> false

let epochs syncs (res : Access.result) =
  let groups =
    List.fold_left
      (fun acc r ->
        match acc with
        | cur :: rest when not (opens_epoch syncs r) -> (r :: cur) :: rest
        | _ -> [ r ] :: acc)
      [] res.Access.regions
  in
  let groups = List.rev_map List.rev groups in
  (* In the steady state the leading regions (not opened by a barrier)
     are the tail of the previous iteration's last epoch. *)
  match groups with
  | first :: (_ :: _ as rest)
    when res.Access.cyclic
         && not (opens_epoch syncs (List.hd first)) ->
      let rec append_last = function
        | [ last ] -> [ last @ first ]
        | g :: tl -> g :: append_last tl
        | [] -> assert false
      in
      append_last rest
  | _ -> groups

type ctx = {
  prog : Ir.program;
  nprocs : int;
  name : string;
  memo : (int * string * int * bool, Range.t) Hashtbl.t;
}

(* Concrete byte ranges of a region entry's reads or writes under one
   processor, memoized per (region, array, proc, is_write). *)
let entry_ranges ctx (r : Access.region) (e : Access.summary_entry) ~p
    ~write =
  let key = (r.Access.after_sync, e.Access.arr, p, write) in
  match Hashtbl.find_opt ctx.memo key with
  | Some v -> v
  | None ->
      let srsd = if write then e.Access.writes else e.Access.reads in
      let v =
        ranges_of ctx.prog ~nprocs:ctx.nprocs ~p e.Access.arr srsd
      in
      Hashtbl.add ctx.memo key v;
      v

let report ctx ~(r1 : Access.region) ~(e1 : Access.summary_entry) ~p
    ~p_write ~(r2 : Access.region) ~(e2 : Access.summary_entry) ~q acc =
  let w1 = entry_ranges ctx r1 e1 ~p ~write:p_write in
  let w2 = entry_ranges ctx r2 e2 ~p:q ~write:true in
  let overlap = Range.inter w1 w2 in
  if Range.is_empty overlap then acc
  else
    let s1 = if p_write then e1.Access.writes else e1.Access.reads in
    let s2 = e2.Access.writes in
    let inexact = inexact_of s1 || inexact_of s2 in
    let severity = if inexact then Diag.Warning else Diag.Error in
    Diag.make severity ~program:ctx.name
      (Diag.Race
         {
           array = e1.Access.arr;
           region = (r1.Access.after_sync, r1.Access.before_sync);
           race = (if p_write then Diag.Write_write else Diag.Read_write);
           p;
           q;
           p_section =
             section_str ctx.prog ~nprocs:ctx.nprocs ~p e1.Access.arr s1;
           q_section =
             section_str ctx.prog ~nprocs:ctx.nprocs ~p:q e1.Access.arr s2;
           overlap;
           inexact;
         })
    :: acc

(* Conflicts between the accesses of region [r1] under proc [p] and the
   accesses of region [r2] under proc [q] (p <> q). Checks p's writes
   against q's writes, and each side's reads against the other's
   writes. [ww] dedups the symmetric write/write pair when the caller
   enumerates both (p, q) and (q, p). *)
let check_pair ctx ~ww (r1 : Access.region) (r2 : Access.region) ~p ~q acc
    =
  List.fold_left
    (fun acc (e1 : Access.summary_entry) ->
      match Access.entry r2 e1.Access.arr with
      | None -> acc
      | Some e2 ->
          let acc =
            if ww && e1.Access.tag.Access.write && e2.Access.tag.Access.write
            then report ctx ~r1 ~e1 ~p ~p_write:true ~r2 ~e2 ~q acc
            else acc
          in
          if e1.Access.tag.Access.read && e2.Access.tag.Access.write then
            report ctx ~r1 ~e1 ~p ~p_write:false ~r2 ~e2 ~q acc
          else acc)
    acc r1.Access.summary

let check prog ~nprocs =
  let res = Access.analyze prog ~nprocs in
  let syncs = Access.index_syncs prog in
  let ctx =
    { prog; nprocs; name = prog.Ir.pname; memo = Hashtbl.create 64 }
  in
  let procs = List.init nprocs (fun p -> p) in
  let same_lock r1 r2 =
    match (protect syncs r1, protect syncs r2) with
    | Some l1, Some l2 -> l1 = l2
    | _ -> false
  in
  let acc =
    List.fold_left
      (fun acc epoch ->
        (* Within one region: distinct procs run the same code. *)
        let acc =
          List.fold_left
            (fun acc r ->
              if same_lock r r then acc
              else
                List.fold_left
                  (fun acc p ->
                    List.fold_left
                      (fun acc q ->
                        if q <= p then acc
                        else
                          let acc =
                            check_pair ctx ~ww:true r r ~p ~q acc
                          in
                          (* reads of q vs writes of p *)
                          check_pair ctx ~ww:false r r ~p:q ~q:p acc)
                      acc procs)
                  acc procs)
            acc epoch
        in
        (* Across distinct regions of the same epoch (lock-separated
           regions run concurrently): the earlier region's accesses
           against the later one's writes, and the later region's reads
           against the earlier one's writes. *)
        let rec pairs acc = function
          | [] -> acc
          | r1 :: rest ->
              let acc =
                List.fold_left
                  (fun acc r2 ->
                    if same_lock r1 r2 then acc
                    else
                      List.fold_left
                        (fun acc p ->
                          List.fold_left
                            (fun acc q ->
                              if q = p then acc
                              else
                                check_pair ctx ~ww:true r1 r2 ~p ~q acc
                                |> check_pair ctx ~ww:false r2 r1 ~p ~q)
                            acc procs)
                        acc procs)
                  acc rest
              in
              pairs acc rest
        in
        pairs acc epoch)
      []
      (epochs syncs res)
  in
  List.rev acc
