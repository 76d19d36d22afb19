module Tmk = Dsm_tmk.Tmk
module Section = Dsm_rsd.Section

type outcome = {
  arrays : (string * Section.array_info) list;
  elapsed_us : float;
  stats : Dsm_sim.Stats.t;
}

let default_flop_us = 0.05

(* variable lookup: induction variables (mutable), then processor bindings,
   then parameters *)
type env = {
  ivals : (string, int) Hashtbl.t;
  bindings : (string * int) list;
  params : (string * int) list;
}

let lookup env v =
  match Hashtbl.find_opt env.ivals v with
  | Some x -> x
  | None -> (
      match List.assoc_opt v env.bindings with
      | Some x -> x
      | None -> List.assoc v env.params)

let rec op_count = function
  | Ir.Fconst _ | Ir.Scalar _ | Ir.Load _ -> 0
  | Ir.Bin (_, a, b) -> 1 + op_count a + op_count b

let eval_lin env l = Lin.eval (lookup env) l

let addr_of info env (r : Ir.aref) =
  let idx = List.map (eval_lin env) r.Ir.aidx |> Array.of_list in
  Section.addr_of_index info idx

let sections_of_vcall infos env (vc : Ir.vcall) =
  List.map
    (fun (name, srsd) ->
      Section.make (List.assoc name infos) (Sym_rsd.eval (lookup env) srsd))
    vc.Ir.vsections

let execute ?(flop_us = default_flop_us) ?trace cfg (prog : Ir.program) =
  let sys = Tmk.make cfg in
  let nprocs = cfg.Dsm_sim.Config.nprocs in
  let params = prog.Ir.params in
  let infos =
    List.map
      (fun (name, extents) ->
        let ext =
          List.map (Lin.eval (fun v -> List.assoc v params)) extents
        in
        let info =
          match ext with
          | [ n ] -> Tmk.Alloc.array sys name ~dims:[ n ]
          | [ n0; n1 ] -> Tmk.Alloc.array sys name ~dims:[ n0; n1 ]
          | [ n0; n1; n2 ] -> Tmk.Alloc.array sys name ~dims:[ n0; n1; n2 ]
          | _ -> invalid_arg "Interp: arrays must have 1-3 dimensions"
        in
        (name, info))
      prog.Ir.arrays
  in
  Tmk.run ?trace sys (fun t ->
      let p = Tmk.pid t in
      let env =
        {
          ivals = Hashtbl.create 8;
          bindings = prog.Ir.proc_bindings ~nprocs ~p;
          params;
        }
      in
      let scalars = Hashtbl.create 8 in
      (* per-processor private (scratch) arrays, outside the DSM *)
      let privs =
        List.map
          (fun (name, extents) ->
            let ext =
              List.map (Lin.eval (fun v -> List.assoc v params)) extents
              |> Array.of_list
            in
            let n = Array.fold_left ( * ) 1 ext in
            (name, (ext, Array.make n 0.0)))
          prog.Ir.privates
      in
      let flat (exts : int array) (r : Ir.aref) =
        let ia = List.map (eval_lin env) r.Ir.aidx |> Array.of_list in
        let off = ref 0 in
        for d = Array.length exts - 1 downto 0 do
          off := (!off * exts.(d)) + ia.(d)
        done;
        !off
      in
      let rec eval_rexpr = function
        | Ir.Fconst x -> x
        | Ir.Scalar s -> (
            match Hashtbl.find_opt scalars s with Some x -> x | None -> 0.0)
        | Ir.Load r -> (
            match List.assoc_opt r.Ir.aname privs with
            | Some (exts, data) -> data.(flat exts r)
            | None ->
                Dsm_tmk.Shm.get_f64 t
                  (addr_of (List.assoc r.Ir.aname infos) env r))
        | Ir.Bin (op, a, b) -> (
            let x = eval_rexpr a
            and y = eval_rexpr b in
            match op with
            | Ir.Add -> x +. y
            | Ir.Sub -> x -. y
            | Ir.Mul -> x *. y
            | Ir.Div -> x /. y)
      in
      let rec exec stmts =
        List.iter
          (fun s ->
            match s with
            | Ir.For l ->
                let lo = eval_lin env l.Ir.lo
                and hi = eval_lin env l.Ir.hi in
                let saved = Hashtbl.find_opt env.ivals l.Ir.ivar in
                for i = lo to hi do
                  Hashtbl.replace env.ivals l.Ir.ivar i;
                  exec l.Ir.body
                done;
                (match saved with
                | Some x -> Hashtbl.replace env.ivals l.Ir.ivar x
                | None -> Hashtbl.remove env.ivals l.Ir.ivar)
            | Ir.If_lt (a, b, bt, bf) ->
                if eval_lin env a < eval_lin env b then exec bt else exec bf
            | Ir.Assign (lhs, rhs) ->
                let v = eval_rexpr rhs in
                (match List.assoc_opt lhs.Ir.aname privs with
                | Some (exts, data) -> data.(flat exts lhs) <- v
                | None ->
                    Dsm_tmk.Shm.set_f64 t
                      (addr_of (List.assoc lhs.Ir.aname infos) env lhs)
                      v);
                Tmk.charge t (float_of_int (1 + op_count rhs) *. flop_us)
            | Ir.Set_scalar (x, rhs) ->
                Hashtbl.replace scalars x (eval_rexpr rhs);
                Tmk.charge t (float_of_int (1 + op_count rhs) *. flop_us)
            | Ir.Barrier _ -> Tmk.barrier t
            | Ir.Lock_acquire id -> Tmk.lock_acquire t id
            | Ir.Lock_release id -> Tmk.lock_release t id
            | Ir.Validate vc ->
                Tmk.validate t ~async:vc.Ir.vasync
                  (sections_of_vcall infos env vc)
                  vc.Ir.vaccess
            | Ir.Validate_w_sync vc ->
                Tmk.validate_w_sync t ~async:vc.Ir.vasync
                  (sections_of_vcall infos env vc)
                  vc.Ir.vaccess
            | Ir.Push pc ->
                let sections_for pp names =
                  let benv =
                    {
                      ivals = Hashtbl.create 1;
                      bindings = prog.Ir.proc_bindings ~nprocs ~p:pp;
                      params;
                    }
                  in
                  List.map
                    (fun (name, srsd) ->
                      Section.make (List.assoc name infos)
                        (Sym_rsd.eval (lookup benv) srsd))
                    names
                in
                let read_sections =
                  Array.init nprocs (fun pp -> sections_for pp pc.Ir.pread)
                and write_sections =
                  Array.init nprocs (fun pp -> sections_for pp pc.Ir.pwrite)
                in
                Tmk.push t ~read_sections ~write_sections)
          stmts
      in
      exec prog.Ir.body);
  let outcome =
    {
      arrays = infos;
      elapsed_us = Tmk.elapsed sys;
      stats = Tmk.total_stats sys;
    }
  in
  (sys, outcome)

let fetch_array sys (info : Section.array_info) =
  let n = Array.fold_left ( * ) 1 info.Section.extents in
  let out = Array.make n 0.0 in
  Tmk.run sys (fun t ->
      if Tmk.pid t = 0 then
        for k = 0 to n - 1 do
          out.(k) <- Dsm_tmk.Shm.get_f64 t (info.Section.base + (8 * k))
        done);
  out

let run_sequential_full ?(flop_us = default_flop_us) (prog : Ir.program) =
  let params = prog.Ir.params in
  let time = ref 0.0 in
  let arrays =
    List.map
      (fun (name, extents) ->
        let ext = List.map (Lin.eval (fun v -> List.assoc v params)) extents in
        let n = List.fold_left ( * ) 1 ext in
        (name, (Array.of_list ext, Array.make n 0.0)))
      (prog.Ir.arrays @ prog.Ir.privates)
  in
  let env =
    {
      ivals = Hashtbl.create 8;
      bindings = prog.Ir.proc_bindings ~nprocs:1 ~p:0;
      params;
    }
  in
  let scalars = Hashtbl.create 8 in
  let flat (exts : int array) idx =
    let n = Array.length exts in
    let off = ref 0 in
    for d = n - 1 downto 0 do
      off := (!off * exts.(d)) + idx.(d)
    done;
    !off
  in
  let rec eval_rexpr = function
    | Ir.Fconst x -> x
    | Ir.Scalar s -> (
        match Hashtbl.find_opt scalars s with Some x -> x | None -> 0.0)
    | Ir.Load r ->
        let exts, data = List.assoc r.Ir.aname arrays in
        let idx = List.map (eval_lin env) r.Ir.aidx |> Array.of_list in
        data.(flat exts idx)
    | Ir.Bin (op, a, b) -> (
        let x = eval_rexpr a
        and y = eval_rexpr b in
        match op with
        | Ir.Add -> x +. y
        | Ir.Sub -> x -. y
        | Ir.Mul -> x *. y
        | Ir.Div -> x /. y)
  in
  let rec exec stmts =
    List.iter
      (fun s ->
        match s with
        | Ir.For l ->
            let lo = eval_lin env l.Ir.lo
            and hi = eval_lin env l.Ir.hi in
            let saved = Hashtbl.find_opt env.ivals l.Ir.ivar in
            for i = lo to hi do
              Hashtbl.replace env.ivals l.Ir.ivar i;
              exec l.Ir.body
            done;
            (match saved with
            | Some x -> Hashtbl.replace env.ivals l.Ir.ivar x
            | None -> Hashtbl.remove env.ivals l.Ir.ivar)
        | Ir.If_lt (a, b, bt, bf) ->
            if eval_lin env a < eval_lin env b then exec bt else exec bf
        | Ir.Assign (lhs, rhs) ->
            let v = eval_rexpr rhs in
            let exts, data = List.assoc lhs.Ir.aname arrays in
            let idx = List.map (eval_lin env) lhs.Ir.aidx |> Array.of_list in
            data.(flat exts idx) <- v;
            time := !time +. (float_of_int (1 + op_count rhs) *. flop_us)
        | Ir.Set_scalar (x, rhs) ->
            Hashtbl.replace scalars x (eval_rexpr rhs);
            time := !time +. (float_of_int (1 + op_count rhs) *. flop_us)
        | Ir.Barrier _ | Ir.Lock_acquire _ | Ir.Lock_release _ | Ir.Validate _
        | Ir.Validate_w_sync _ | Ir.Push _ ->
            ())
      stmts
  in
  exec prog.Ir.body;
  (List.map (fun (name, (_, data)) -> (name, data)) arrays, !time)

let run_sequential ?flop_us prog = fst (run_sequential_full ?flop_us prog)
let seq_time_us ?flop_us prog = snd (run_sequential_full ?flop_us prog)
