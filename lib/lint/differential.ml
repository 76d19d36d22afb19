module Range = Dsm_rsd.Range
module Section = Dsm_rsd.Section
open Dsm_compiler

type proc_stat = {
  static_pages : int;
  dynamic_pages : int;
  covered_pages : int;
}

type report = {
  nprocs : int;
  per_proc : proc_stat array;
  diags : Diag.t list;
}

let check ~program ~page_size ~nprocs ~static ?page_owner accesses =
  let page_owner = Option.value ~default:(fun _ -> None) page_owner in
  let dynamic = Array.make nprocs [] in
  let diags = ref [] in
  let reported = Hashtbl.create 16 in
  List.iter
    (fun (a : Dsm_trace.Replay.access) ->
      if a.Dsm_trace.Replay.proc >= 0 && a.Dsm_trace.Replay.proc < nprocs
      then begin
        let p = a.Dsm_trace.Replay.proc
        and page = a.Dsm_trace.Replay.page in
        dynamic.(p) <- page :: dynamic.(p);
        let interval =
          Range.of_interval (page * page_size) ((page + 1) * page_size)
        in
        if
          Range.is_empty (Range.inter static.(p) interval)
          && not (Hashtbl.mem reported (p, page))
        then begin
          Hashtbl.add reported (p, page) ();
          diags :=
            Diag.make Diag.Error ~program
              (Diag.Uncovered_access
                 {
                   p;
                   page;
                   epoch = a.Dsm_trace.Replay.epoch;
                   write = a.Dsm_trace.Replay.write;
                   array = page_owner page;
                 })
            :: !diags
        end
      end)
    accesses;
  let per_proc =
    Array.init nprocs (fun p ->
        let dyn = List.sort_uniq compare dynamic.(p) in
        {
          static_pages = List.length (Range.pages ~page_size static.(p));
          dynamic_pages = List.length dyn;
          covered_pages =
            List.length
              (List.filter
                 (fun page ->
                   not
                     (Range.is_empty
                        (Range.inter static.(p)
                           (Range.of_interval (page * page_size)
                              ((page + 1) * page_size)))))
                 dyn);
        })
  in
  { nprocs; per_proc; diags = List.rev !diags }

let static_ranges (prog : Ir.program) ~nprocs ~arrays =
  let summaries =
    let res = Access.analyze prog ~nprocs in
    match res.Access.regions with
    | [] -> [ Access.body_summary prog ~nprocs ]
    | regions ->
        (* Regions cover only the code between syncs; the body summary
           adds the leading/trailing statements of linear programs. *)
        let all =
          List.map (fun (r : Access.region) -> r.Access.summary) regions
        in
        if res.Access.cyclic then all
        else Access.body_summary prog ~nprocs :: all
  in
  Array.init nprocs (fun p ->
      let binding = Conc.binding prog ~nprocs ~p in
      List.fold_left
        (fun acc summary ->
          List.fold_left
            (fun acc (e : Access.summary_entry) ->
              match List.assoc_opt e.Access.arr arrays with
              | None -> acc
              | Some info ->
                  let add acc = function
                    | None -> acc
                    | Some srsd ->
                        Range.union acc
                          (Section.ranges
                             (Section.make info
                                (Sym_rsd.eval binding srsd)))
                  in
                  add (add acc e.Access.reads) e.Access.writes)
            acc summary)
        Range.empty summaries)

let run ?(opts = Transform.all) ?cfg (prog : Ir.program) ~nprocs =
  let cfg =
    match cfg with
    | Some c -> Dsm_sim.Config.with_procs c nprocs
    | None -> Dsm_sim.Config.with_procs Dsm_sim.Config.default nprocs
  in
  let transformed, _ = Transform.transform prog ~nprocs ~opts in
  let sink = Dsm_trace.Sink.create ~nprocs () in
  let _sys, outcome = Interp.execute ~trace:sink cfg transformed in
  let static = static_ranges prog ~nprocs ~arrays:outcome.Interp.arrays in
  let page_owner page =
    let lo = page * cfg.Dsm_sim.Config.page_size in
    let hi = lo + cfg.Dsm_sim.Config.page_size in
    List.find_map
      (fun (name, info) ->
        if
          not
            (Range.is_empty
               (Range.inter
                  (Section.ranges (Section.whole info))
                  (Range.of_interval lo hi)))
        then Some name
        else None)
      outcome.Interp.arrays
  in
  let accesses = Dsm_trace.Replay.accesses (Dsm_trace.Sink.events sink) in
  check ~program:prog.Ir.pname ~page_size:cfg.Dsm_sim.Config.page_size
    ~nprocs ~static ~page_owner accesses

(* {1 Static protocol-plan grading} *)

module Plan = Dsm_tmk.Proto_plan

type misprediction = {
  mp_page : int;
  mp_array : string;
  mp_expected : string * int;
  mp_got : (string * int) option;
  mp_switched : bool;
}

type class_stat = {
  cs_proto : string;
  cs_confidence : Plan.confidence;
  cs_pages : int;
  cs_agreed : int;
}

type grading = {
  exact_pages : int;
  exact_agreed : int;
  inexact_pages : int;
  inexact_agreed : int;
  by_class : class_stat list;
  mispredictions : misprediction list;  (** exact-confidence pages only *)
}

let grade ~(plan : Plan.t) ~classes ~events =
  let dyn = Hashtbl.create 64 in
  List.iter (fun (page, proto, owner) -> Hashtbl.replace dyn page (proto, owner)) classes;
  let switches = Hashtbl.create 16 in
  List.iter
    (fun (ev : Dsm_trace.Event.t) ->
      match ev.Dsm_trace.Event.kind with
      | Dsm_trace.Event.Proto_switch { page; proto; owner; _ } ->
          Hashtbl.replace switches page
            ((proto, owner)
            :: Option.value ~default:[] (Hashtbl.find_opt switches page))
      | _ -> ())
    events;
  let stats = Hashtbl.create 8 in
  let mis = ref [] in
  let ex = ref 0 and exa = ref 0 and inx = ref 0 and inxa = ref 0 in
  List.iter
    (fun (d : Plan.directive) ->
      let pname = Plan.proto_name d.Plan.proto in
      let expected = (pname, d.Plan.owner) in
      for page = d.Plan.lo_page to d.Plan.hi_page do
        let got = Hashtbl.find_opt dyn page in
        let agree =
          match got with
          | Some (proto, owner) ->
              proto = pname && (pname = "lrc" || owner = d.Plan.owner)
          | None ->
              (* absent from the adaptive table means the page stayed
                 under the homeless-LRC default *)
              pname = "lrc"
        in
        let switched =
          d.Plan.confidence = Plan.Exact
          && List.exists
               (fun (proto, owner) ->
                 not (proto = pname && (pname = "lrc" || owner = d.Plan.owner)))
               (Option.value ~default:[] (Hashtbl.find_opt switches page))
        in
        let key = (pname, d.Plan.confidence) in
        let pages, agreed =
          Option.value ~default:(0, 0) (Hashtbl.find_opt stats key)
        in
        Hashtbl.replace stats key (pages + 1, agreed + if agree then 1 else 0);
        (match d.Plan.confidence with
        | Plan.Exact ->
            incr ex;
            if agree then incr exa
        | Plan.Inexact ->
            incr inx;
            if agree then incr inxa);
        if d.Plan.confidence = Plan.Exact && ((not agree) || switched) then
          mis :=
            {
              mp_page = page;
              mp_array = d.Plan.array;
              mp_expected = expected;
              mp_got = got;
              mp_switched = switched;
            }
            :: !mis
      done)
    plan.Plan.directives;
  let by_class =
    List.sort compare
      (Hashtbl.fold
         (fun (proto, conf) (pages, agreed) acc ->
           {
             cs_proto = proto;
             cs_confidence = conf;
             cs_pages = pages;
             cs_agreed = agreed;
           }
           :: acc)
         stats [])
  in
  {
    exact_pages = !ex;
    exact_agreed = !exa;
    inexact_pages = !inx;
    inexact_agreed = !inxa;
    by_class;
    mispredictions = List.rev !mis;
  }
