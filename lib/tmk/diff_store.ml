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
  high : int;
}

(* A cell's entries, one per stored diff, sit in slots [first, len) of
   two parallel arrays, ascending by seq. Slots [first, live) are merged
   into [base] and kept for byte accounting only: a late requester is
   still charged their sizes (Section 6's diff accumulation). Slots
   [live, len) still hand out their own payload. Coalescing always merges
   the oldest live entries, so merged entries are a prefix.

   Both an entry's seq and its lo (the first interval seq its accumulated
   diff covers) ascend with the slot, so a fetch's entries
   ([seq > after], [lo <= upto]) are one slot range, found with two binary
   searches, and its charge is a difference of running byte totals. *)
type cell = {
  writer : int;
  mutable base : unit_to_apply option;
      (* merged payloads of entries <= base_seq; None while empty *)
  mutable base_seq : int;
  mutable base_vcsum : int;
  mutable acct : int array;
      (* per slot, three ints: seq, lo, and the bytes of every earlier
         entry since the cell's last supersede *)
  mutable units : unit_to_apply array;
      (* per live slot, the unit every fetch hands out (built once at
         [add]); [no_unit] elsewhere, so merged payloads can be freed *)
  mutable first : int;
  mutable live : int;
  mutable len : int;
  mutable total : int;  (* bytes of every entry since the last supersede *)
  mutable hi_seq : int;  (* highest entry seq ever added — O(1) [lo] *)
  mutable last_vcsum : int;
      (* of the newest entry, kept even after GC drops it: {!latest_vcsum}
         depends only on it; min_int before the first add *)
  mutable last_supersede : bool;  (* the newest entry is a WRITE_ALL one *)
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
    acct = [||];
    units = [||];
    first = 0;
    live = 0;
    len = 0;
    total = 0;
    hi_seq = 0;
    last_vcsum = min_int;
    last_supersede = false;
    applied_by = [||];
  }

let no_unit = { order = 0; payload = Diff.empty; writer = -1; upto_seq = 0 }

let seq_at c k = Array.unsafe_get c.acct (3 * k)

(* Bytes of the entries before slot [k] since the last supersede. *)
let bytes_before c k = if k = c.len then c.total else c.acct.((3 * k) + 2)

(* The first slot in [lo, hi) whose [field] (0: seq, 1: lo) exceeds [x],
   or [hi]. *)
let first_above c ~field ~lo ~hi x =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Array.unsafe_get c.acct ((3 * mid) + field) <= x then lo := mid + 1
    else hi := mid
  done;
  !lo

(* Make room for one more slot: slide the retained slots down to 0 when
   at most half the arrays are in use, or else double them. The arrays
   start at two slots, allocated with the cell's first entry. *)
let make_room c =
  let n = c.len - c.first and cap = Array.length c.units in
  if cap > 0 && 2 * n <= cap then begin
    Array.blit c.acct (3 * c.first) c.acct 0 (3 * n);
    Array.blit c.units c.first c.units 0 n;
    Array.fill c.units n (cap - n) no_unit
  end
  else begin
    let cap = max 2 (2 * cap) in
    let acct = Array.make (3 * cap) 0 and units = Array.make cap no_unit in
    Array.blit c.acct (3 * c.first) acct 0 (3 * n);
    Array.blit c.units c.first units 0 n;
    c.acct <- acct;
    c.units <- units
  end;
  c.live <- c.live - c.first;
  c.len <- n;
  c.first <- 0

let push c ~seq ~lo ~size u =
  if c.len = Array.length c.units then make_room c;
  let k = c.len in
  c.acct.(3 * k) <- seq;
  c.acct.((3 * k) + 1) <- lo;
  c.acct.((3 * k) + 2) <- c.total;
  c.units.(k) <- u;
  c.total <- c.total + size;
  c.len <- k + 1

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
   any entry when this page has a single writer. Those are the oldest live
   entries. Then drop merged entries no future fetch can cover: a
   requester's [after] is at least its applied watermark minus one (a push
   rollback moves the page watermark back a single interval), so
   [seq <= min_applied - 1] entries are dead even for byte accounting. *)
let coalesce t ~page c =
  let min_applied = ref max_int in
  Array.iter (fun s -> if s < !min_applied then min_applied := s) c.applied_by;
  let min_applied = !min_applied in
  let stop =
    if single_writer t ~page ~writer:c.writer then c.len
    else first_above c ~field:0 ~lo:c.live ~hi:c.len min_applied
  in
  if stop > c.live then begin
    let base =
      ref (match c.base with Some u -> u.payload | None -> Diff.empty)
    in
    for k = c.live to stop - 1 do
      let u = c.units.(k) in
      base := Diff.merge !base u.payload;
      if u.upto_seq > c.base_seq then c.base_seq <- u.upto_seq;
      if u.order > c.base_vcsum then c.base_vcsum <- u.order;
      c.units.(k) <- no_unit
    done;
    c.live <- stop;
    c.base <- base_unit c !base
  end;
  while c.first < c.live && seq_at c c.first < min_applied do
    c.first <- c.first + 1
  done

let add t ~writer ~page ~seq ~vcsum ~diff ~supersedes =
  let c = get_cell t ~writer ~page in
  (* [fetch]'s slot search relies on seqs growing with every add *)
  assert (seq > c.hi_seq);
  (* the accumulated diff covers every interval since the last one *)
  let lo = 1 + if c.base_seq > c.hi_seq then c.base_seq else c.hi_seq in
  if supersedes then begin
    (* WRITE_ALL: the new content replaces all of this writer's history for
       the page — older payloads and sizes are dropped. *)
    c.base <- None;
    c.base_seq <- 0;
    c.base_vcsum <- 0;
    Array.fill c.units c.live (c.len - c.live) no_unit;
    c.first <- 0;
    c.live <- 0;
    c.len <- 0;
    c.total <- 0
  end;
  push c ~seq ~lo ~size:(Diff.size_bytes diff)
    { order = vcsum; payload = diff; writer; upto_seq = seq };
  c.hi_seq <- seq;
  c.last_vcsum <- vcsum;
  c.last_supersede <- supersedes;
  if (not supersedes) && c.len - c.first > 8 then coalesce t ~page c

let no_units = { units = []; charge_bytes = 0; ndiffs = 0; high = 0 }

(* Only intervals the requester holds write notices for ([seq <= upto]) may
   be sent; an accumulated entry whose span merely extends past [upto] is
   safe to include (the absence of a forced materialization proves no other
   writer's interval is ordered inside the span), but an entry starting
   beyond [upto] is not requested and must not be sent — it could be applied
   before an ordered-in-between interval of another writer. *)
let fetch_cell c ~after ~upto =
  let i = first_above c ~field:0 ~lo:c.first ~hi:c.len after in
  let j = first_above c ~field:1 ~lo:i ~hi:c.len upto in
  let units = ref [] and high = ref 0 in
  for k = j - 1 downto if i > c.live then i else c.live do
    let u = c.units.(k) in
    if u.upto_seq > !high then high := u.upto_seq;
    units := u :: !units
  done;
  let bytes = bytes_before c j - bytes_before c i and n = j - i in
  match c.base with
  | Some b when c.base_seq > after ->
      {
        units = b :: !units;
        charge_bytes = bytes;
        ndiffs = n;
        high = (if b.upto_seq > !high then b.upto_seq else !high);
      }
  | Some _ | None ->
      if n = 0 then no_units
      else { units = !units; charge_bytes = bytes; ndiffs = n; high = !high }

let fetch t ~writer ~page ~after ~upto =
  fetch_cell (lookup t ~writer ~page) ~after ~upto

let note_cell c ~by ~seq =
  if c != no_cell && seq > c.applied_by.(by) then c.applied_by.(by) <- seq

let fetch_note t ~writer ~page ~after ~upto ~by =
  let c = lookup t ~writer ~page in
  let r = fetch_cell c ~after ~upto in
  note_cell c ~by ~seq:(if r.high > upto then r.high else upto);
  r

let has_any t ~writer ~page ~after =
  let c = lookup t ~writer ~page in
  c != no_cell && (c.base_seq > after || c.hi_seq > after)

let latest_vcsum t ~writer ~page =
  let v = (lookup t ~writer ~page).last_vcsum in
  if v = min_int then None else Some v

(* One merge walk of [writers.(0 .. n-1)] (ascending) against the page's
   ids. *)
let latest_writer t ~page writers n =
  let pg = page_of t page in
  let nids = Array.length pg.ids in
  let i = ref 0 and best = ref (-1) and best_v = ref 0 in
  for k = 0 to n - 1 do
    let q = writers.(k) in
    while !i < nids && pg.ids.(!i) < q do
      incr i
    done;
    if !i < nids && pg.ids.(!i) = q then begin
      let v = pg.cells.(!i).last_vcsum in
      if v <> min_int && (!best < 0 || v > !best_v) then begin
        best := q;
        best_v := v
      end
    end
  done;
  !best

(* Only a WRITE_ALL materialization may supersede other writers' diffs: a
   twin-accumulated diff can cover a whole page while carrying stale bytes
   for locations another writer overwrote in an ordered-in-between
   interval. *)
let latest_full_page t ~writer ~page =
  let c = lookup t ~writer ~page in
  (* A WRITE_ALL entry resets its cell and coalescing only runs on later
     adds, so while it is the newest it is the live slot [len - 1]. *)
  if
    c.last_supersede
    && Diff.covers_page c.units.(c.len - 1).payload ~page_size:t.page_size
  then Some (c.last_vcsum, c.hi_seq)
  else None

let note_applied t ~writer ~page ~by ~seq =
  note_cell (lookup t ~writer ~page) ~by ~seq
