(* Sparse per-writer watermark maps.

   Every page's protocol metadata carries two maps writer -> interval seq
   (applied and known). As dense [int array]s of length [nprocs] they cost
   O(nprocs) words per (processor, page) pair — at 1024 simulated
   processors that is gigabytes of zeroes. A page is usually written by a
   few processors, so the maps are sparse; but a diff-accumulation program
   (IS) has every processor write every bucket page, so at 64 processors a
   map can hold 64 writers and is updated on every fetch and notice.

   Representation: one flat [int array] of interleaved pairs
   [k0; v0; k1; v1; ...] sorted ascending by key, plus an entry count.
   Lookups binary-search the keys; [set] on a present key overwrites the
   value in place with no allocation; inserting shifts the tail right by
   one pair, growing the array geometrically from a capacity of one pair.
   Capacity is O(entries), never O(nprocs). Absent keys read 0.

   Iteration is in ascending writer order, matching the
   [for q = 0 to nprocs - 1] loops this replaces — bit-identical simulated
   behaviour.

   Lives in [Dsm_util] so both the run-time ([Dsm_tmk]) and the trace
   checker ([Dsm_trace.Check], which sits below the run-time in the
   library order) share one definition. *)

type t = { mutable a : int array; mutable n : int }

let create () = { a = [||]; n = 0 }

(* Index of the first entry whose key is >= [k] (in [0, n]). *)
let search t k =
  let a = t.a in
  let lo = ref 0 and hi = ref t.n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if a.(2 * mid) < k then lo := mid + 1 else hi := mid
  done;
  !lo

let get t k =
  let i = search t k in
  if i < t.n && t.a.(2 * i) = k then t.a.((2 * i) + 1) else 0

let find_opt t k =
  let i = search t k in
  if i < t.n && t.a.(2 * i) = k then Some t.a.((2 * i) + 1) else None

let set t k v =
  let i = search t k in
  if i < t.n && t.a.(2 * i) = k then t.a.((2 * i) + 1) <- v
  else begin
    let n = t.n in
    if 2 * n = Array.length t.a then begin
      let a' = Array.make (max 2 (4 * n)) 0 in
      Array.blit t.a 0 a' 0 (2 * n);
      t.a <- a'
    end;
    let a = t.a in
    Array.blit a (2 * i) a (2 * (i + 1)) (2 * (n - i));
    a.(2 * i) <- k;
    a.((2 * i) + 1) <- v;
    t.n <- n + 1
  end

(* Ascending writer order — deterministic, like the dense loops. *)
let iter f t =
  let a = t.a in
  for i = 0 to t.n - 1 do
    f a.(2 * i) a.((2 * i) + 1)
  done

let exists f t =
  let a = t.a and n = t.n in
  let rec go i = i < n && (f a.(2 * i) a.((2 * i) + 1) || go (i + 1)) in
  go 0

let to_pairs t =
  let a = t.a in
  let rec go i acc =
    if i < 0 then acc else go (i - 1) ((a.(2 * i), a.((2 * i) + 1)) :: acc)
  in
  go (t.n - 1) []

let of_pairs l =
  let t = create () in
  List.iter (fun (k, v) -> set t k v) l;
  t

let keys t =
  let a = t.a in
  let rec go i acc = if i < 0 then acc else go (i - 1) (a.(2 * i) :: acc) in
  go (t.n - 1) []

(* Keys present in either map, ascending: the domain over which at least
   one of two watermark maps is non-zero. Built by a merge walk from the
   high end, so the list comes out ascending with no reversal. *)
let union_keys x y =
  let xa = x.a and ya = y.a in
  let rec go i j acc =
    if i < 0 then if j < 0 then acc else go i (j - 1) (ya.(2 * j) :: acc)
    else if j < 0 then go (i - 1) j (xa.(2 * i) :: acc)
    else
      let kx = xa.(2 * i) and ky = ya.(2 * j) in
      if kx > ky then go (i - 1) j (kx :: acc)
      else if ky > kx then go i (j - 1) (ky :: acc)
      else go (i - 1) (j - 1) (kx :: acc)
  in
  go (x.n - 1) (y.n - 1) []

(* [iter_above f a b]: [f k va vb] for every explicit entry [(k, va)] of
   [a] with [va > vb], where [vb = get b k], ascending by key. One merge
   walk over both maps. [f] must not insert keys into [a] or [b]. *)
let iter_above f a b =
  let aa = a.a and ba = b.a and an = a.n and bn = b.n in
  let j = ref 0 in
  for i = 0 to an - 1 do
    let k = Array.unsafe_get aa (2 * i) in
    while !j < bn && Array.unsafe_get ba (2 * !j) < k do
      incr j
    done;
    let va = Array.unsafe_get aa ((2 * i) + 1) in
    let vb =
      if !j < bn && Array.unsafe_get ba (2 * !j) = k then
        Array.unsafe_get ba ((2 * !j) + 1)
      else 0
    in
    if va > vb then f k va vb
  done

(* [for_all_of a b f]: [f (get a k) v] holds for every explicit entry
   [(k, v)] of [b]. One merge walk over both maps, stopping at the first
   failure. *)
let for_all_of a b f =
  let aa = a.a and ba = b.a and an = a.n and bn = b.n in
  let rec go i j =
    if j >= bn then true
    else
      let k = ba.(2 * j) in
      if i < an && aa.(2 * i) < k then go (i + 1) j
      else
        let av = if i < an && aa.(2 * i) = k then aa.((2 * i) + 1) else 0 in
        f av ba.((2 * j) + 1) && go i (j + 1)
  in
  go 0 0

(* [dominates a b]: a(k) >= b(k) pointwise (only b's explicit entries can
   break it — absent entries are 0). *)
let dominates a b = for_all_of a b (fun av bv -> av >= bv)

(* [exists_gt a b]: a(k) > b(k) for some k (only a's explicit entries can
   exceed — absent entries are 0 and b(k) >= 0). *)
let exists_gt a b = not (for_all_of b a (fun bv av -> av <= bv))
