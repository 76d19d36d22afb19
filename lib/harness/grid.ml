open Dsm_apps.App_common
module Config = Dsm_sim.Config

module type S = Dsm_apps.Workload.S

type system = Tmk of opt_level * bool | Pvm | Xhpf

type key = {
  app : string;
  size : string;
  behavior : string;
  cfg : Config.t;
  system : system;
  digest : bool;
}

let describe k =
  let system =
    match k.system with
    | Tmk (l, async) ->
        Printf.sprintf "level %s, async %b" (opt_level_name l) async
    | Pvm -> "pvm"
    | Xhpf -> "xhpf"
  in
  Printf.sprintf "app %s, size %s%s, %d procs, backend %s, %s%s" k.app k.size
    (if k.behavior = "" then "" else ", behavior " ^ k.behavior)
    k.cfg.Config.nprocs
    (Config.backend_name k.cfg.Config.backend)
    system
    (if k.digest then ", digest" else "")

let check k r =
  if r.max_err > 1e-6 then
    failwith
      (Printf.sprintf "wrong result (max err %g): %s" r.max_err (describe k))

(* The default hash stops after ten meaningful words, before the backend
   and network fields of the configuration. *)
module Memo = Hashtbl.Make (struct
  type t = key

  let equal = ( = )
  let hash = Hashtbl.hash_param 64 256
end)

type t = { base_cfg : Config.t; memo : result option Memo.t; mutable runs : int }

let create cfg = { base_cfg = cfg; memo = Memo.create 64; runs = 0 }
let cfg g = g.base_cfg
let runs g = g.runs

let run (type s b) g (module W : S with type size = s and type behavior = b)
    ?(cfg = g.base_cfg) ~size:(size_label, (size : s)) ?behavior
    ?(digest = false) system =
  let behavior_label, behavior =
    Option.value behavior ~default:("", W.default_behavior)
  in
  let key =
    { app = W.name; size = size_label; behavior = behavior_label; cfg; system; digest }
  in
  match Memo.find_opt g.memo key with
  | Some r -> r
  | None ->
      let r =
        match system with
        | Tmk (level, async) ->
            if List.mem level W.levels then
              Some (W.tmk ~digest cfg ~size ~behavior ~level ~async)
            else None
        | Pvm -> Some (W.pvm cfg ~size ~behavior)
        | Xhpf -> Option.map (fun f -> f cfg ~size ~behavior) W.xhpf
      in
      Option.iter
        (fun r ->
          g.runs <- g.runs + 1;
          check key r)
        r;
      Memo.replace g.memo key r;
      r

let backends =
  [
    (Config.Lrc, "lrc");
    (Config.Hlrc, "hlrc");
    (Config.Inval, "inval");
    (Config.Adaptive, "adpt");
  ]

type row = {
  workload : (module S);
  label : string;
  name : string;
  size_name : string;
  seq_time_us : float;
  levels : opt_level list;
}

let row workload label =
  let (module W : S) = workload in
  let size = List.assoc label W.sizes in
  {
    workload;
    label;
    name = W.name;
    size_name = W.size_name size;
    seq_time_us = W.seq_time_us size;
    levels = W.levels;
  }

let get g ?cfg ?digest r system =
  let (module W) = r.workload in
  run g (module W) ?cfg ~size:(r.label, List.assoc r.label W.sizes) ?digest
    system

let kernel name ~size = row (List.assoc name Dsm_apps.Registry.kernels) size

let paper =
  List.concat_map
    (fun (_, w) -> [ row w "large"; row w "small" ])
    Dsm_apps.Registry.kernels

let deepest r = List.fold_left (fun _ l -> l) Base r.levels
let speedup r res = r.seq_time_us /. res.time_us
let base g r = Option.get (get g r (Tmk (Base, false)))

let best_opt g ~async r =
  let opt l = if l = Base then None else get g r (Tmk (l, async)) in
  match List.filter_map opt r.levels with
  | [] -> base g r
  | first :: rest ->
      List.fold_left
        (fun acc res -> if res.time_us < acc.time_us then res else acc)
        first rest
