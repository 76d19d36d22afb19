(* Static sharing-pattern classification (the compile-time half of the
   adaptive backend's online classifier).

   The input is a {e model}: an IR program whose steady-state loop
   reproduces, epoch by epoch, the shared-array accesses of one of the
   shipped applications, plus the concrete allocation list. The analysis
   instantiates every barrier epoch's access summaries under each
   processor's bindings, accumulates per-page reader/writer processor
   sets, and runs the decision rule of {!Dsm_tmk.Adaptive.reclassify}
   ({!Dsm_tmk.Proto_plan.decide}) over every classification window the
   online backend could observe. A page whose decision is the same in
   every window (and whose contributing summaries are all exact) gets an
   [Exact] directive: seeding it is guaranteed to agree with what the
   online classifier would eventually decide, so the warm-up switches
   are pure savings. Everything else is emitted [Inexact], with the
   whole-cycle union decision as a hint that the run-time may ignore. *)

module Ir = Dsm_compiler.Ir
module Access = Dsm_compiler.Access
module Conc = Dsm_compiler.Conc
module Section = Dsm_rsd.Section
module Range = Dsm_rsd.Range
module Pset = Dsm_util.Pset
module Plan = Dsm_tmk.Proto_plan

(* {1 Models} *)

type model = {
  prog : Ir.program;
      (* steady-state model: a cyclic program whose barrier epochs carry
         the application's per-epoch access summaries. The loop body must
         start with a barrier so the epoch list comes out in execution
         order (the first-window check below depends on it). *)
  init : Ir.program option;
      (* the accesses before the first barrier (initialization), as a
         separate linear program summarized whole; [None] when the
         application performs no shared writes before its first barrier *)
  arrays : (string * int list) list;
      (* allocation order and extents, exactly as the application calls
         {!Dsm_tmk.Tmk.Alloc.array}: the layout replica below depends on it *)
  page_size : int;  (* the page size the application's run will use *)
}

(* Replica of the bump allocator ({!Dsm_mem.Addr_space.alloc}): 8-byte
   aligned, allocation order. This is what makes the plan's absolute page
   numbers meaningful at run time. *)
let layout arrays =
  let align_up x a = (x + a - 1) / a * a in
  let brk = ref 0 in
  List.map
    (fun (name, dims) ->
      let base = align_up !brk 8 in
      let bytes = 8 * List.fold_left ( * ) 1 dims in
      brk := base + bytes;
      {
        Section.name;
        base;
        elem_size = 8;
        extents = Array.of_list dims;
      })
    arrays

(* {1 Per-epoch page populations} *)

type acc = {
  mutable readers : Pset.t;
  mutable writers : Pset.t;
  mutable exact : bool;  (* every contributing summary was exact *)
}

let empty_acc () = { readers = Pset.empty; writers = Pset.empty; exact = true }

let union_acc a b =
  {
    readers = Pset.union a.readers b.readers;
    writers = Pset.union a.writers b.writers;
    exact = a.exact && b.exact;
  }

(* The online classifier's own decision rule; a plan names no owner for
   a homeless-LRC page. *)
let taxonomy a =
  Plan.decide ~readers:a.readers ~writers:a.writers ~lrc_owner:(-1)

let decision_equal a b =
  match (a, b) with
  | Some (p, o), Some (p', o') -> p = p' && o = o'
  | None, None -> true
  | _ -> false

(* {1 The per-page rule}

   [epochs] is one page's reader/writer populations over one steady
   cycle, in execution order; [init] the populations of the code before
   the first barrier. The online classifier decides every [window]
   barrier epochs, and the alignment of its windows against the cycle is
   an accident of the cycle length — so a prediction is only safe when
   {e every} cyclic window of [window] consecutive epochs yields the same
   decision (windows with no writer yield no decision and never switch),
   and the first window (init accesses plus the leading epochs) agrees
   too. *)
let classify_page ~window ~init epochs =
  let ne = Array.length epochs in
  let win o =
    let a = ref (empty_acc ()) in
    for k = 0 to window - 1 do
      a := union_acc !a epochs.((o + k) mod ne)
    done;
    !a
  in
  let steady =
    if ne = 0 then []
    else List.filter_map (fun o -> taxonomy (win o)) (List.init ne Fun.id)
  in
  let init_acc = match init with Some a -> a | None -> empty_acc () in
  let first_window =
    (* what the online classifier sees before its first decision: the
       init accesses plus the first [window - 1] steady epochs *)
    let a = ref init_acc in
    for k = 0 to min (window - 1) ne - 1 do
      a := union_acc !a epochs.(k)
    done;
    !a
  in
  let first_dec = taxonomy first_window in
  let all_exact =
    init_acc.exact && Array.for_all (fun a -> a.exact) epochs
  in
  let whole =
    Array.fold_left union_acc init_acc epochs
  in
  match steady with
  | [] ->
      (* never written in steady state: the first window's decision (if
         any) is final — nothing ever reverts it *)
      let conf = if all_exact then Plan.Exact else Plan.Inexact in
      let reason = if all_exact then "init-only" else "inexact-summary" in
      (first_dec, conf, reason)
  | d :: rest ->
      let stable = List.for_all (decision_equal (Some d)) (List.map Option.some rest) in
      let first_ok = first_dec = None || decision_equal first_dec (Some d) in
      (* The run's last window is truncated wherever the program stops
         (a trailing write-only phase is typical), so every contiguous
         sub-window shorter than [window] must also be unable to revert
         the decision: it must yield nothing or the same answer. *)
      let edges_ok =
        List.for_all
          (fun o ->
            List.for_all
              (fun len ->
                let a = ref (empty_acc ()) in
                for k = 0 to len - 1 do
                  a := union_acc !a epochs.((o + k) mod ne)
                done;
                match taxonomy !a with
                | None -> true
                | dec -> decision_equal dec (Some d))
              (List.init (min (window - 1) ne) (fun i -> i + 1)))
          (List.init ne Fun.id)
      in
      if not all_exact then (Some d, Plan.Inexact, "inexact-summary")
      else if stable && first_ok && edges_ok then (Some d, Plan.Exact, "steady")
      else if stable && first_ok then (Some d, Plan.Inexact, "run-edge")
      else (taxonomy whole, Plan.Inexact, "mixed-windows")

(* {1 Cost model}

   Estimated protocol messages per steady epoch for each candidate,
   counting request/response pairs: under homeless LRC every non-writing
   reader fetches one diff per writer; under home-based LRC every
   non-home writer flushes and every non-home non-writer reader fetches
   a page; under invalidate, ownership moves when the writer is not the
   previous owner and every reader outside the writer set re-fetches. *)
let costs ~init epochs =
  let eps =
    if Array.length epochs > 0 then epochs
    else [| (match init with Some a -> a | None -> empty_acc ()) |]
  in
  let card_minus s t =
    List.length (List.filter (fun p -> not (Pset.mem p t)) (Pset.to_list s))
  in
  let home =
    match taxonomy (Array.fold_left union_acc (empty_acc ()) eps) with
    | Some (_, o) when o >= 0 -> o
    | _ -> 0
  in
  let lrc = ref 0.0 and hlrc = ref 0.0 and inval = ref 0.0 in
  let prev = ref (match init with
    | Some a when Pset.cardinal a.writers = 1 -> Pset.min_elt a.writers
    | _ -> -1)
  in
  Array.iter
    (fun e ->
      let nw = Pset.cardinal e.writers in
      let outside_readers = card_minus e.readers e.writers in
      lrc := !lrc +. float_of_int (2 * nw * outside_readers);
      let home_set = Pset.singleton home in
      hlrc :=
        !hlrc
        +. float_of_int
             (2 * card_minus e.writers home_set
             + 2 * card_minus e.readers (Pset.union home_set e.writers));
      let w_moves =
        if nw = 0 then 0
        else
          card_minus e.writers
            (if !prev >= 0 then Pset.singleton !prev else Pset.empty)
      in
      inval := !inval +. float_of_int (2 * w_moves + 2 * outside_readers);
      if nw = 1 then prev := Pset.min_elt e.writers)
    eps;
  let n = float_of_int (Array.length eps) in
  let per x = Float.round (x /. n *. 100.0) /. 100.0 in
  (per !lrc, per !hlrc, per !inval)

(* {1 Driving the access analysis} *)

type page_class = {
  page : int;
  array : string;
  decision : (Plan.proto * int) option;
  confidence : Plan.confidence;
  reason : string;
  est_lrc : float;
  est_hlrc : float;
  est_inval : float;
}

(* Accumulate one region summary entry, instantiated for processor [p],
   into the epoch's page table. *)
let accumulate tbl prog ~nprocs ~page_size infos ~p (en : Access.summary_entry)
    =
  match List.assoc_opt en.Access.arr infos with
  | None -> ()
  | Some info ->
      let touch ~write (rsd : Dsm_compiler.Sym_rsd.t) =
        let sec = Conc.section ~info prog ~nprocs ~p en.Access.arr rsd in
        let pages = Range.pages ~page_size (Section.ranges sec) in
        List.iter
          (fun g ->
            let a =
              match Hashtbl.find_opt tbl g with
              | Some a -> a
              | None ->
                  let a = empty_acc () in
                  Hashtbl.replace tbl g a;
                  a
            in
            if write then a.writers <- Pset.add p a.writers
            else a.readers <- Pset.add p a.readers;
            if not rsd.Dsm_compiler.Sym_rsd.exact then a.exact <- false)
          pages
      in
      let reads =
        match en.Access.reads with
        | Some r -> Some r
        | None -> if en.Access.tag.Access.read then Some en.Access.rsd else None
      and writes =
        match en.Access.writes with
        | Some w -> Some w
        | None -> if en.Access.tag.Access.write then Some en.Access.rsd else None
      in
      Option.iter (touch ~write:false) reads;
      Option.iter (touch ~write:true) writes

let classify ?(window = Dsm_tmk.Proto_plan.window)
    ~nprocs (m : model) : page_class list =
  let window = max 1 window in
  let page_size = m.page_size in
  let infos_l = layout m.arrays in
  let infos = List.map (fun i -> (i.Section.name, i)) infos_l in
  let res = Access.analyze m.prog ~nprocs in
  let syncs = Access.index_syncs m.prog in
  let epoch_regions = Race.epochs syncs res in
  let ne = List.length epoch_regions in
  let tbls = Array.init (max ne 1) (fun _ -> Hashtbl.create 256) in
  List.iteri
    (fun ei regions ->
      List.iter
        (fun (r : Access.region) ->
          for p = 0 to nprocs - 1 do
            List.iter
              (accumulate tbls.(ei) m.prog ~nprocs ~page_size infos ~p)
              r.Access.summary
          done)
        regions)
    epoch_regions;
  let init_tbl = Hashtbl.create 256 in
  (match m.init with
  | None -> ()
  | Some ip ->
      let summary = Access.body_summary ip ~nprocs in
      for p = 0 to nprocs - 1 do
        List.iter (accumulate init_tbl ip ~nprocs ~page_size infos ~p) summary
      done);
  let pages = Hashtbl.create 1024 in
  Array.iter (Hashtbl.iter (fun g _ -> Hashtbl.replace pages g ())) tbls;
  Hashtbl.iter (fun g _ -> Hashtbl.replace pages g ()) init_tbl;
  let array_of_page g =
    let lo = g * page_size and hi = ((g + 1) * page_size) - 1 in
    let covers i =
      let bytes = 8 * Array.fold_left ( * ) 1 i.Section.extents in
      i.Section.base <= hi && i.Section.base + bytes - 1 >= lo
    in
    match List.find_opt covers infos_l with
    | Some i -> i.Section.name
    | None -> "?"
  in
  Hashtbl.fold (fun g () l -> g :: l) pages []
  |> List.sort compare
  |> List.map (fun g ->
         let epochs =
           Array.init ne (fun ei ->
               match Hashtbl.find_opt tbls.(ei) g with
               | Some a -> a
               | None -> empty_acc ())
         in
         let init =
           if m.init = None then None
           else
             Some
               (match Hashtbl.find_opt init_tbl g with
               | Some a -> a
               | None -> empty_acc ())
         in
         let decision, confidence, reason =
           classify_page ~window ~init epochs
         in
         let est_lrc, est_hlrc, est_inval = costs ~init epochs in
         {
           page = g;
           array = array_of_page g;
           decision;
           confidence;
           reason;
           est_lrc;
           est_hlrc;
           est_inval;
         })

(* {1 Plan emission} *)

(* Coalesce adjacent same-decision pages of one array into directives;
   the per-page cost estimates are averaged over the run. *)
let plan ?window ~program ~level ~nprocs (m : model) : Plan.t =
  let classes = classify ?window ~nprocs m in
  let directive_of run =
    match run with
    | [] -> None
    | first :: _ -> (
        match first.decision with
        | None -> None
        | Some (proto, owner) ->
            let n = float_of_int (List.length run) in
            let avg f =
              Float.round (List.fold_left (fun s c -> s +. f c) 0.0 run /. n *. 100.0)
              /. 100.0
            in
            Some
              {
                Plan.array = first.array;
                lo_page = first.page;
                hi_page = (List.nth run (List.length run - 1)).page;
                proto;
                owner;
                confidence = first.confidence;
                reason = first.reason;
                est_lrc = avg (fun c -> c.est_lrc);
                est_hlrc = avg (fun c -> c.est_hlrc);
                est_inval = avg (fun c -> c.est_inval);
              })
  in
  let same a b =
    a.array = b.array && a.decision = b.decision
    && a.confidence = b.confidence && a.reason = b.reason
  in
  let rec runs acc cur = function
    | [] -> List.rev (List.rev cur :: acc)
    | c :: rest -> (
        match cur with
        | prev :: _ when same prev c && c.page = prev.page + 1 ->
            runs acc (c :: cur) rest
        | [] -> runs acc [ c ] rest
        | _ -> runs (List.rev cur :: acc) [ c ] rest)
  in
  let directives =
    match classes with
    | [] -> []
    | _ -> List.filter_map directive_of (runs [] [] classes)
  in
  let t =
    {
      Plan.program;
      nprocs;
      page_size = m.page_size;
      level;
      directives;
    }
  in
  match Plan.validate t with
  | Ok t -> t
  | Error e -> invalid_arg ("Classify.plan produced an invalid plan: " ^ e)
