module Diff = Dsm_mem.Diff
module Page_map = Dsm_mem.Page_map

type unit_to_apply = {
  order : int;
  payload : Diff.t;
  writer : int;
  upto_seq : int;
}

type fetch_result = {
  units : unit_to_apply list;
  charge_bytes : int;
  ndiffs : int;
}

type entry = {
  lo : int;  (* first interval seq the (accumulated) diff covers *)
  seq : int;  (* last interval seq it covers *)
  vcsum : int;
  size : int;
  supersede : bool;  (* a WRITE_ALL materialization (verbatim content) *)
  mutable live : unit_to_apply option;
      (* the entry's payload as the unit every fetch hands out (built once
         at [add]); None once merged into the base *)
}

type cell = {
  writer : int;
  mutable base : unit_to_apply option;
      (* merged payloads of entries <= base_seq; None while empty *)
  mutable base_seq : int;
  mutable base_vcsum : int;
  mutable entries : entry list;
      (* newest first, so an add is a cons and a fetch's walk conses its
         units back into ascending order; sizes kept even if merged *)
  mutable nentries : int;
  mutable hi_seq : int;  (* highest entry seq ever added — O(1) [lo] *)
  mutable newest : entry option;
      (* the newest entry, kept even after GC drops it from [entries]:
         {!latest_vcsum} and {!latest_full_page} depend only on it *)
  mutable applied_by : int array;  (* per-proc applied watermark, for GC *)
}

(* Per page, the cells of the writers that ever stored a diff for it,
   ascending by writer, and their writer ids in a flat array of their own:
   a lookup binary-searches the ids without touching the cells. *)
type page = { mutable ids : int array; mutable cells : cell array }

type t = { nprocs : int; page_size : int; pages : page Page_map.t }

let create ~nprocs ~page_size =
  { nprocs; page_size; pages = Page_map.create () }

let no_page = { ids = [||]; cells = [||] }

let page_of t page =
  match Page_map.find t.pages page with Some pg -> pg | None -> no_page

(* Index of the first id not below [writer]. *)
let search ids writer =
  let lo = ref 0 and hi = ref (Array.length ids) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Array.unsafe_get ids mid < writer then lo := mid + 1 else hi := mid
  done;
  !lo

(* The sentinel [lookup] returns for an absent cell, so the hot lookups
   allocate no option. *)
let no_cell =
  {
    writer = -1;
    base = None;
    base_seq = 0;
    base_vcsum = 0;
    entries = [];
    nentries = 0;
    hi_seq = 0;
    newest = None;
    applied_by = [||];
  }

let lookup t ~writer ~page =
  let pg = page_of t page in
  let i = search pg.ids writer in
  if i < Array.length pg.ids && pg.ids.(i) = writer then pg.cells.(i)
  else no_cell

let insert a i x =
  let n = Array.length a in
  let grown = Array.make (n + 1) x in
  Array.blit a 0 grown 0 i;
  Array.blit a i grown (i + 1) (n - i);
  grown

let get_cell t ~writer ~page =
  let pg =
    Page_map.find_or_add t.pages page (fun () -> { ids = [||]; cells = [||] })
  in
  let i = search pg.ids writer in
  if i < Array.length pg.ids && pg.ids.(i) = writer then pg.cells.(i)
  else begin
    let c = { no_cell with writer; applied_by = Array.make t.nprocs 0 } in
    pg.ids <- insert pg.ids i writer;
    pg.cells <- insert pg.cells i c;
    c
  end

let writers_of_page t ~page = Array.to_list (page_of t page).ids

let single_writer t ~page ~writer =
  let ids = (page_of t page).ids in
  Array.length ids = 1 && ids.(0) = writer

let base_unit c base =
  if Diff.is_empty base then None
  else
    Some
      {
        order = c.base_vcsum;
        payload = base;
        writer = c.writer;
        upto_seq = c.base_seq;
      }

(* Merge into [base] every entry payload that can no longer differ from
   applying the individual diffs in order: entries applied by everyone, or
   any entry when this page has a single writer. Then drop merged entries
   no future fetch can cover: a requester's [after] is at least its
   applied watermark minus one (a push rollback moves the page watermark
   back a single interval), so [seq <= min_applied - 1] entries are dead
   even for byte accounting. *)
let coalesce t ~page c =
  let min_applied = Array.fold_left min max_int c.applied_by in
  let solo = single_writer t ~page ~writer:c.writer in
  let base =
    ref (match c.base with Some u -> u.payload | None -> Diff.empty)
  in
  List.iter
    (fun (e : entry) ->
      match e.live with
      | Some u when solo || e.seq <= min_applied ->
          base := Diff.merge !base u.payload ~page_size:t.page_size;
          c.base_seq <- max c.base_seq e.seq;
          c.base_vcsum <- max c.base_vcsum e.vcsum;
          e.live <- None
      | Some _ | None -> ())
    (List.rev c.entries);
  c.base <- base_unit c !base;
  c.entries <-
    List.filter
      (fun (e : entry) -> Option.is_some e.live || e.seq > min_applied - 1)
      c.entries;
  c.nentries <- List.length c.entries

let add t ~writer ~page ~seq ~vcsum ~diff ~supersedes =
  let c = get_cell t ~writer ~page in
  (* [fetch]'s walk relies on seqs growing with every add *)
  assert (seq > c.hi_seq);
  (* the accumulated diff covers every interval since the last one *)
  let lo = max (c.base_seq + 1) (c.hi_seq + 1) in
  let e =
    {
      lo;
      seq;
      vcsum;
      size = Diff.size_bytes diff;
      supersede = supersedes;
      live = Some { order = vcsum; payload = diff; writer; upto_seq = seq };
    }
  in
  c.hi_seq <- seq;
  c.newest <- Some e;
  if supersedes then begin
    (* WRITE_ALL: the new content replaces all of this writer's history for
       the page — older payloads and sizes are dropped. *)
    c.base <- None;
    c.base_seq <- 0;
    c.base_vcsum <- 0;
    c.entries <- [ e ];
    c.nentries <- 1
  end
  else begin
    c.entries <- e :: c.entries;
    c.nentries <- c.nentries + 1;
    if c.nentries > 8 then coalesce t ~page c
  end

let no_units = { units = []; charge_bytes = 0; ndiffs = 0 }

(* One walk of the newest-first entries: consing the covered units yields
   them ascending, and the base unit goes in front. A cell's diffs are
   materialized in interval order, so entry seqs fall strictly along the
   walk and it stops at the first entry at or below [after]. *)
let rec collect c ~after ~upto units bytes n = function
  | (e : entry) :: older when e.seq > after ->
      if e.lo <= upto then
        let units = match e.live with Some u -> u :: units | None -> units in
        collect c ~after ~upto units (bytes + e.size) (n + 1) older
      else collect c ~after ~upto units bytes n older
  | _ -> (
      match c.base with
      | Some b when c.base_seq > after ->
          { units = b :: units; charge_bytes = bytes; ndiffs = n }
      | Some _ | None ->
          if n = 0 then no_units
          else { units; charge_bytes = bytes; ndiffs = n })

(* Only intervals the requester holds write notices for ([seq <= upto]) may
   be sent; an accumulated entry whose span merely extends past [upto] is
   safe to include (the absence of a forced materialization proves no other
   writer's interval is ordered inside the span), but an entry starting
   beyond [upto] is not requested and must not be sent — it could be applied
   before an ordered-in-between interval of another writer. *)
let fetch t ~writer ~page ~after ~upto =
  let c = lookup t ~writer ~page in
  collect c ~after ~upto [] 0 0 c.entries

let has_any t ~writer ~page ~after =
  let c = lookup t ~writer ~page in
  c != no_cell && (c.base_seq > after || c.hi_seq > after)

let newest_vcsum c =
  match c.newest with
  | Some (last : entry) -> last.vcsum
  | None -> if c.base_seq > 0 then c.base_vcsum else min_int

let latest_vcsum t ~writer ~page =
  let v = newest_vcsum (lookup t ~writer ~page) in
  if v = min_int then None else Some v

(* One merge walk of [writers] (ascending) against the page's ids. *)
let latest_writer t ~page writers =
  let pg = page_of t page in
  let n = Array.length pg.ids in
  let rec walk i best best_v = function
    | [] -> best
    | q :: rest ->
        let i = ref i in
        while !i < n && pg.ids.(!i) < q do
          incr i
        done;
        if !i < n && pg.ids.(!i) = q then
          let v = newest_vcsum pg.cells.(!i) in
          if v <> min_int && (best < 0 || v > best_v) then walk !i q v rest
          else walk !i best best_v rest
        else walk !i best best_v rest
  in
  walk 0 (-1) 0 writers

(* Only a WRITE_ALL materialization may supersede other writers' diffs: a
   twin-accumulated diff can cover a whole page while carrying stale bytes
   for locations another writer overwrote in an ordered-in-between
   interval. *)
let latest_full_page t ~writer ~page =
  match (lookup t ~writer ~page).newest with
  | Some ({ supersede = true; live = Some u; _ } as last)
    when Diff.covers_page u.payload ~page_size:t.page_size ->
      Some (last.vcsum, last.seq)
  | Some _ | None -> None

let note_applied t ~writer ~page ~by ~seq =
  let c = lookup t ~writer ~page in
  if c != no_cell && seq > c.applied_by.(by) then c.applied_by.(by) <- seq
