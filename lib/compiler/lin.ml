type t = { const : int; terms : (string * int) list }

let norm terms =
  terms
  |> List.filter (fun (_, c) -> c <> 0)
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let const c = { const = c; terms = [] }
let var ?(coeff = 1) v = { const = 0; terms = norm [ (v, coeff) ] }

let add a b =
  let merged =
    List.fold_left
      (fun acc (v, c) ->
        match List.assoc_opt v acc with
        | Some c' -> (v, c + c') :: List.remove_assoc v acc
        | None -> (v, c) :: acc)
      a.terms b.terms
  in
  { const = a.const + b.const; terms = norm merged }

let scale k a =
  { const = k * a.const; terms = norm (List.map (fun (v, c) -> (v, k * c)) a.terms) }

let sub a b = add a (scale (-1) b)
let offset a k = { a with const = a.const + k }
let equal a b = a.const = b.const && a.terms = b.terms
let is_const a = if a.terms = [] then Some a.const else None
let coeff_of a v = Option.value ~default:0 (List.assoc_opt v a.terms)

let subst a v e =
  let c = coeff_of a v in
  if c = 0 then a
  else
    add
      { const = a.const; terms = norm (List.remove_assoc v a.terms) }
      (scale c e)

let eval lookup a =
  List.fold_left (fun acc (v, c) -> acc + (c * lookup v)) a.const a.terms

let diff_const a b = is_const (sub a b)

let pp ppf a =
  let pp_term first ppf (v, c) =
    if c = 1 then Format.fprintf ppf "%s%s" (if first then "" else " + ") v
    else if c = -1 then Format.fprintf ppf "%s%s" (if first then "-" else " - ") v
    else if c >= 0 then
      Format.fprintf ppf "%s%d*%s" (if first then "" else " + ") c v
    else Format.fprintf ppf "%s%d*%s" (if first then "" else " - ") (-c) v
  in
  match a.terms with
  | [] -> Format.fprintf ppf "%d" a.const
  | t0 :: rest ->
      pp_term true ppf t0;
      List.iter (pp_term false ppf) rest;
      if a.const > 0 then Format.fprintf ppf " + %d" a.const
      else if a.const < 0 then Format.fprintf ppf " - %d" (-a.const)
