type 'a t = { mutable slots : 'a option array; mutable count : int }

let initial = 64
let create () = { slots = Array.make initial None; count = 0 }

let find t n = if n < Array.length t.slots then t.slots.(n) else None

let find_or_add t n make =
  let len = Array.length t.slots in
  if n >= len then begin
    let slots = Array.make (max (n + 1) (2 * len)) None in
    Array.blit t.slots 0 slots 0 len;
    t.slots <- slots
  end;
  match t.slots.(n) with
  | Some v -> v
  | None ->
      let v = make () in
      t.slots.(n) <- Some v;
      t.count <- t.count + 1;
      v

let length t = t.count

let iter f t =
  Array.iteri (fun n slot -> match slot with Some v -> f n v | None -> ()) t.slots

let reset t =
  t.slots <- Array.make initial None;
  t.count <- 0
