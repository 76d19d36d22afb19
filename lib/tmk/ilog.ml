(* Indexed per-processor write-notice log.

   [Protocol.release] allocates interval sequence numbers densely (1, 2,
   ...), so the log is an array indexed by seq instead of the former
   newest-first association list. This turns the three hot queries —
   pulling the notices of a vector-clock window, counting notices newer
   than a watermark, and finding the newest interval touching a page —
   from O(full history) scans into O(window) loops or O(1) lookups. A
   cumulative notice count gives the watermark query without touching
   the entries at all.

   Iteration is seq-descending, matching the former newest-first list
   order exactly: simulated results are bit-identical. *)

type t = {
  mutable pages : int list array;  (* slot s: pages of interval seq s *)
  mutable cum : int array;  (* slot s: total notice count of seqs <= s *)
  mutable hi : int;  (* highest recorded seq; slots 1..hi are valid *)
}

let create () = { pages = Array.make 64 []; cum = Array.make 64 0; hi = 0 }

let grow t n =
  let len = Array.length t.pages in
  if n >= len then begin
    let len' = max (n + 1) (2 * len) in
    let p = Array.make len' [] in
    Array.blit t.pages 0 p 0 len;
    t.pages <- p;
    let c = Array.make len' 0 in
    Array.blit t.cum 0 c 0 len;
    t.cum <- c
  end

let add t ~seq pages =
  if seq <> t.hi + 1 then invalid_arg "Ilog.add: non-consecutive seq";
  grow t seq;
  t.pages.(seq) <- pages;
  t.cum.(seq) <- t.cum.(t.hi) + List.length pages;
  t.hi <- seq

let hi t = t.hi

let clamp t s = if s >= t.hi then t.hi else if s < 0 then 0 else s

(* Number of write notices in intervals with [lo < seq <= hi]. *)
let count_window t ~lo ~hi = t.cum.(clamp t hi) - t.cum.(clamp t lo)

(* Number of write notices in intervals newer than [seq]. *)
let count_since t seq = count_window t ~lo:seq ~hi:t.hi

(* [f seq pages] for every recorded interval with [lo < seq <= hi],
   newest first. *)
let iter_desc t ~lo ~hi f =
  let top = if hi > t.hi then t.hi else hi in
  for s = top downto lo + 1 do
    f s t.pages.(s)
  done

(* Newest interval with [lo < seq <= upto] whose page list contains
   [page]; 0 if none. *)
let newest_containing t ~lo ~upto page =
  let top = if upto > t.hi then t.hi else upto in
  let rec go s =
    if s <= lo then 0 else if List.mem page t.pages.(s) then s else go (s - 1)
  in
  go top
