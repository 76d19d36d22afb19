module Pset = Dsm_util.Pset

type entry = {
  lo : int;  (* first interval seq the (accumulated) diff covers *)
  seq : int;  (* last interval seq it covers *)
  vcsum : int;
  size : int;
  supersede : bool;  (* a WRITE_ALL materialization (verbatim content) *)
  mutable payload : Dsm_mem.Diff.t option;  (* None once merged into base *)
}

type cell = {
  writer : int;
  mutable base : Dsm_mem.Diff.t;  (* merged payloads of entries <= base_seq *)
  mutable base_seq : int;
  mutable base_vcsum : int;
  mutable entries : entry list;  (* ascending seq; sizes kept even if merged *)
  mutable hi_seq : int;  (* highest entry seq ever added — O(1) [lo] *)
  mutable newest : entry option;
      (* the newest entry, kept even after GC drops it from [entries]:
         {!latest_vcsum} and {!latest_full_page} depend only on it *)
  mutable applied_by : int array;  (* per-proc applied watermark, for GC *)
}

type t = {
  nprocs : int;
  page_size : int;
  cells : (int * int, cell) Hashtbl.t;  (* (writer, page) *)
  page_writers : (int, Pset.t) Hashtbl.t;
      (* page -> set of writers with a cell: cheap membership and
         single-writer tests however many writers a page accumulates,
         with no bitmask cap on the processor count *)
}

type unit_to_apply = {
  order : int;
  payload : Dsm_mem.Diff.t;
  writer : int;
  upto_seq : int;
}

type fetch_result = {
  units : unit_to_apply list;
  charge_bytes : int;
  ndiffs : int;
}

let create ~nprocs ~page_size =
  {
    nprocs;
    page_size;
    cells = Hashtbl.create 1024;
    page_writers = Hashtbl.create 256;
  }

let find_cell t ~writer ~page = Hashtbl.find_opt t.cells (writer, page)

let get_cell t ~writer ~page =
  match find_cell t ~writer ~page with
  | Some c -> c
  | None ->
      let c =
        {
          writer;
          base = Dsm_mem.Diff.empty;
          base_seq = 0;
          base_vcsum = 0;
          entries = [];
          hi_seq = 0;
          newest = None;
          applied_by = Array.make t.nprocs 0;
        }
      in
      Hashtbl.replace t.cells (writer, page) c;
      let ws =
        Option.value ~default:Pset.empty (Hashtbl.find_opt t.page_writers page)
      in
      Hashtbl.replace t.page_writers page (Pset.add writer ws);
      c

let writers_of_page t ~page =
  match Hashtbl.find_opt t.page_writers page with
  | None -> []
  | Some ws -> Pset.to_list ws

let single_writer t ~page ~writer =
  match Hashtbl.find_opt t.page_writers page with
  | None -> false
  | Some ws -> Pset.equal ws (Pset.singleton writer)

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
  List.iter
    (fun (e : entry) ->
      match e.payload with
      | Some d when solo || e.seq <= min_applied ->
          c.base <- Dsm_mem.Diff.merge c.base d ~page_size:t.page_size;
          c.base_seq <- max c.base_seq e.seq;
          c.base_vcsum <- max c.base_vcsum e.vcsum;
          e.payload <- None
      | Some _ | None -> ())
    c.entries;
  c.entries <-
    List.filter
      (fun (e : entry) -> not (e.payload = None && e.seq <= min_applied - 1))
      c.entries

let add t ~writer ~page ~seq ~vcsum ~diff ~supersedes =
  let c = get_cell t ~writer ~page in
  (* the accumulated diff covers every interval since the last one *)
  let lo = max (c.base_seq + 1) (c.hi_seq + 1) in
  if supersedes then begin
    (* WRITE_ALL: the new content replaces all of this writer's history for
       the page — older payloads and sizes are dropped. *)
    c.base <- Dsm_mem.Diff.empty;
    c.base_seq <- 0;
    c.base_vcsum <- 0;
    let e =
      {
        lo;
        seq;
        vcsum;
        size = Dsm_mem.Diff.size_bytes diff;
        supersede = true;
        payload = Some diff;
      }
    in
    c.entries <- [ e ];
    c.hi_seq <- seq;
    c.newest <- Some e
  end
  else begin
    let e =
      {
        lo;
        seq;
        vcsum;
        size = Dsm_mem.Diff.size_bytes diff;
        supersede = false;
        payload = Some diff;
      }
    in
    c.entries <- c.entries @ [ e ];
    c.hi_seq <- seq;
    c.newest <- Some e;
    if List.length c.entries > 8 then coalesce t ~page c
  end

(* Only intervals the requester holds write notices for ([seq <= upto]) may
   be sent; an accumulated entry whose span merely extends past [upto] is
   safe to include (the absence of a forced materialization proves no other
   writer's interval is ordered inside the span), but an entry starting
   beyond [upto] is not requested and must not be sent — it could be applied
   before an ordered-in-between interval of another writer. *)
let fetch t ~writer ~page ~after ~upto =
  match find_cell t ~writer ~page with
  | None -> { units = []; charge_bytes = 0; ndiffs = 0 }
  | Some c ->
      let covered =
        List.filter (fun (e : entry) -> e.seq > after && e.lo <= upto) c.entries
      in
      let charge_bytes = List.fold_left (fun a e -> a + e.size) 0 covered in
      let ndiffs = List.length covered in
      let base_unit =
        if c.base_seq > after && not (Dsm_mem.Diff.is_empty c.base) then
          [ { order = c.base_vcsum; payload = c.base; writer = c.writer; upto_seq = c.base_seq } ]
        else []
      in
      let entry_units =
        List.filter_map
          (fun (e : entry) ->
            match e.payload with
            | Some d when e.seq > after ->
                Some { order = e.vcsum; payload = d; writer = c.writer; upto_seq = e.seq }
            | Some _ | None -> None)
          covered
      in
      { units = base_unit @ entry_units; charge_bytes; ndiffs }

let has_any t ~writer ~page ~after =
  match find_cell t ~writer ~page with
  | None -> false
  | Some c -> c.base_seq > after || c.hi_seq > after

let latest_vcsum t ~writer ~page =
  match find_cell t ~writer ~page with
  | None -> None
  | Some c -> (
      match c.newest with
      | Some (last : entry) -> Some last.vcsum
      | None -> if c.base_seq > 0 then Some c.base_vcsum else None)

(* Only a WRITE_ALL materialization may supersede other writers' diffs: a
   twin-accumulated diff can cover a whole page while carrying stale bytes
   for locations another writer overwrote in an ordered-in-between
   interval. *)
let latest_full_page t ~writer ~page =
  match find_cell t ~writer ~page with
  | None -> None
  | Some c -> (
      match c.newest with
      | Some last -> (
          match last.payload with
          | Some d
            when last.supersede
                 && Dsm_mem.Diff.covers_page d ~page_size:t.page_size ->
              Some (last.vcsum, last.seq)
          | Some _ | None -> None)
      | None -> None)

let note_applied t ~writer ~page ~by ~seq =
  match find_cell t ~writer ~page with
  | None -> ()
  | Some c -> if seq > c.applied_by.(by) then c.applied_by.(by) <- seq
