type access = {
  proc : int;
  page : int;
  write : bool;
  epoch : int;
  time : float;
}

let fold f init events =
  let epochs = Hashtbl.create 8 in
  let epoch_of p = Option.value ~default:0 (Hashtbl.find_opt epochs p) in
  List.fold_left
    (fun acc (e : Event.t) ->
      match e.Event.kind with
      | Event.Barrier_depart _ ->
          Hashtbl.replace epochs e.Event.proc (epoch_of e.Event.proc + 1);
          acc
      | Event.Page_fault { page; write; _ } ->
          f acc
            {
              proc = e.Event.proc;
              page;
              write;
              epoch = epoch_of e.Event.proc;
              time = e.Event.time;
            }
      | Event.Twin { page } ->
          f acc
            {
              proc = e.Event.proc;
              page;
              write = true;
              epoch = epoch_of e.Event.proc;
              time = e.Event.time;
            }
      | _ -> acc)
    init events

let accesses events = List.rev (fold (fun acc a -> a :: acc) [] events)
