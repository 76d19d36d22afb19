(* Indexed per-processor write-notice log, with two views of one log.

   [Protocol.release] allocates interval sequence numbers densely (1, 2,
   ...), so the log is an array indexed by seq instead of the former
   newest-first association list. This turns the hot queries — pulling
   the notices of a vector-clock window and counting notices newer than a
   watermark — from O(full history) scans into O(window) loops or O(1)
   lookups. A cumulative notice count gives the watermark query without
   touching the entries at all.

   The second view indexes the same notices by page: for every page, the
   seqs of this writer's intervals that list it, as runs of consecutive
   seqs (a page written in every interval costs one run). {!newest_touch}
   answers "the newest interval up to [upto] that wrote the page" with one
   comparison in the common case (the last run ends at or below [upto])
   and a binary search over the runs otherwise. A {!writers} table,
   shared by every processor's log, records which writers ever listed
   each page and the newest interval of each that did, so
   {!iter_newest} visits a writer's own index only when that interval
   lies above [upto]. The receiver's quiet pages ({!Protocol}) fold their
   [known] watermarks from this view instead of applying every notice
   eagerly.

   Each interval's pages are kept as an [int array]: one word per page
   instead of a list's three. Beside them, parallel to the pages, lie the
   object slots each page's notice covers ([Some slots] for a page of an
   object region, [None] otherwise), and a second cumulative count, of
   object-page notices, sizes the extents a window ships in O(1). Both
   arrays are allocated with the log's first object page, so the kernels
   pay nothing for them; after that an interval with no object page
   keeps the shared empty array.

   Iteration is seq-descending, matching the former newest-first list
   order exactly: simulated results are bit-identical. *)

(* A page-indexed table of rows: page -> [| n; <head - 1 header words>;
   n entries of [width] words |], grown by doubling; [||] while the page
   has no entry. *)
type index = { head : int; width : int; mutable by_page : int array array }

let count ix page =
  if page < Array.length ix.by_page then
    let a = Array.unsafe_get ix.by_page page in
    if Array.length a = 0 then 0 else a.(0)
  else 0

(* Append an entry to [page]'s row; returns its first slot. *)
let push ix page =
  let len = Array.length ix.by_page in
  if page >= len then begin
    let b = Array.make (max (page + 1) (2 * len)) [||] in
    Array.blit ix.by_page 0 b 0 len;
    ix.by_page <- b
  end;
  let a = ix.by_page.(page) in
  let n = if Array.length a = 0 then 0 else a.(0) in
  let slot = ix.head + (n * ix.width) in
  if slot + ix.width > Array.length a then begin
    let b = Array.make (max (ix.head + ix.width) (2 * Array.length a)) 0 in
    Array.blit a 0 b 0 (Array.length a);
    ix.by_page.(page) <- b
  end;
  ix.by_page.(page).(0) <- n + 1;
  slot

(* The writers that ever listed each page, in order of first listing:
   rows of (writer, newest interval of the writer listing the page). *)
type writers = index

let writers () = { head = 1; width = 2; by_page = [||] }

type t = {
  owner : int;
  shared : writers;
  mutable pages : int array array;  (* slot s: pages of interval seq s *)
  mutable extents : Dsm_util.Pset.t option array array;
      (* slot s: per page of interval s, the object slots it wrote; [||]
         when none of them lies in an object region. [||] as a whole
         until the first interval with an extent *)
  mutable cum : int array;  (* slot s: total notice count of seqs <= s *)
  mutable cum_obj : int array;
      (* slot s: notices of seqs <= s that carry an extent; [||] while
         [extents] is *)
  mutable hi : int;  (* highest recorded seq; slots 1..hi are valid *)
  touch : index;
      (* page -> [| n; this log's slot in [shared]'s row; n entries |]:
         the seqs of the intervals listing the page, ascending, with a run
         of consecutive seqs lo..hi stored as [lo; -hi] (a page written
         in every interval, the usual case for an owner's block, costs
         two words) *)
}

let create ?(owner = 0) ?(writers = writers ()) () =
  {
    owner;
    shared = writers;
    pages = Array.make 64 [||];
    extents = [||];
    cum = Array.make 64 0;
    cum_obj = [||];
    hi = 0;
    touch = { head = 2; width = 1; by_page = [||] };
  }

let grow t n =
  let len = Array.length t.pages in
  if n >= len then begin
    let len' = max (n + 1) (2 * len) in
    let widen a fill =
      let b = Array.make len' fill in
      Array.blit a 0 b 0 len;
      b
    in
    t.pages <- widen t.pages [||];
    t.cum <- widen t.cum 0;
    if Array.length t.cum_obj > 0 then begin
      t.extents <- widen t.extents [||];
      t.cum_obj <- widen t.cum_obj 0
    end
  end

(* Record interval [seq] over [pages]; [extents], when given, is parallel
   to [pages]. *)
let add t ~seq ?(extents = [||]) pages =
  if seq <> t.hi + 1 then invalid_arg "Ilog.add: non-consecutive seq";
  let pages = Array.of_list pages in
  if Array.length extents > 0 && Array.length extents <> Array.length pages
  then invalid_arg "Ilog.add: extents not parallel to pages";
  let nobj =
    Array.fold_left
      (fun n e -> match e with None -> n | Some _ -> n + 1)
      0 extents
  in
  grow t seq;
  t.pages.(seq) <- pages;
  t.cum.(seq) <- t.cum.(t.hi) + Array.length pages;
  if nobj > 0 && Array.length t.cum_obj = 0 then begin
    (* every earlier interval carried no extent *)
    t.extents <- Array.make (Array.length t.pages) [||];
    t.cum_obj <- Array.make (Array.length t.pages) 0
  end;
  if Array.length t.cum_obj > 0 then begin
    if nobj > 0 then t.extents.(seq) <- extents;
    t.cum_obj.(seq) <- t.cum_obj.(t.hi) + nobj
  end;
  t.hi <- seq;
  Array.iter
    (fun page ->
      let n = count t.touch page in
      let last = if n = 0 then 0 else t.touch.by_page.(page).(n + 1) in
      (* a page listed twice in one interval is indexed once *)
      if abs last <> seq then begin
        if n > 0 && last = -(seq - 1) then
          t.touch.by_page.(page).(n + 1) <- -seq
        else begin
          let slot = push t.touch page in
          let row = t.touch.by_page.(page) in
          (* a singleton directly below [seq] becomes a run *)
          row.(slot) <- (if n > 0 && last = seq - 1 then -seq else seq);
          if n = 0 then begin
            let at = push t.shared page in
            t.shared.by_page.(page).(at) <- t.owner;
            row.(1) <- at
          end
        end;
        let row = t.touch.by_page.(page) in
        t.shared.by_page.(page).(row.(1) + 1) <- seq
      end)
    pages

let hi t = t.hi

let clamp t s = if s >= t.hi then t.hi else if s < 0 then 0 else s

(* Number of write notices in intervals with [lo < seq <= hi]. *)
let count_window t ~lo ~hi = t.cum.(clamp t hi) - t.cum.(clamp t lo)

(* Number of those notices that carry an extent. *)
let count_obj_window t ~lo ~hi =
  if Array.length t.cum_obj = 0 then 0
  else t.cum_obj.(clamp t hi) - t.cum_obj.(clamp t lo)

(* Number of write notices in intervals newer than [seq]. *)
let count_since t seq = count_window t ~lo:seq ~hi:t.hi

(* [f owner seq pages extents] for every recorded interval with
   [lo < seq <= hi], newest first. Passing the log's [owner] lets one
   callback serve every writer's log. *)
let iter_desc t ~lo ~hi f =
  let top = if hi > t.hi then t.hi else hi in
  let none = Array.length t.extents = 0 in
  for s = top downto lo + 1 do
    f t.owner s t.pages.(s) (if none then [||] else t.extents.(s))
  done

(* The extent of the [i]th page of an interval whose extents are
   [extents]. *)
let extent extents i = if Array.length extents = 0 then None else extents.(i)

(* Newest interval with [seq <= upto] whose pages include [page]; 0 if
   none. *)
let newest_touch t page ~upto =
  let n = count t.touch page in
  if n = 0 then 0
  else begin
    let a = t.touch.by_page.(page) in
    if abs a.(n + 1) <= upto then abs a.(n + 1)
    else if a.(2) > upto then 0
    else begin
      (* the last entry at or below [upto]: abs a.(lo) <= upto <
         abs a.(hi) *)
      let lo = ref 2 and hi = ref (n + 1) in
      while !hi - !lo > 1 do
        let mid = (!lo + !hi) lsr 1 in
        if abs a.(mid) <= upto then lo := mid else hi := mid
      done;
      let e = a.(!lo) in
      if e < 0 then -e (* a run ending at or below [upto] *)
      else if a.(!lo + 1) < 0 then upto (* inside the run starting at e *)
      else e
    end
  end

(* [f q s] for every writer [q] of [logs] that listed [page], in order of
   first listing, with [s] its newest interval listing the page up to
   [upto q] (0 if none). The newest listing overall is read from the
   shared row, so a writer with nothing newer than [upto q] costs no
   visit to its own index. *)
let iter_newest (w : writers) logs page ~upto f =
  let n = count w page in
  if n > 0 then begin
    let a = w.by_page.(page) in
    for i = 0 to n - 1 do
      let q = a.(1 + (2 * i)) and last = a.(2 + (2 * i)) in
      let u = upto q in
      f q (if last <= u then last else newest_touch logs.(q) page ~upto:u)
    done
  end
