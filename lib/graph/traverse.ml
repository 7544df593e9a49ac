type node = Digraph.node

let bfs ?(bound = max_int) ~dir g sources =
  let dist = Hashtbl.create 64 in
  let q = Queue.create () in
  List.iter
    (fun s ->
      if not (Hashtbl.mem dist s) then begin
        Hashtbl.replace dist s 0;
        Queue.add s q
      end)
    sources;
  let step =
    match dir with
    | `Forward -> Digraph.iter_succ
    | `Backward -> Digraph.iter_pred
  in
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    let d = Hashtbl.find dist v in
    if d < bound then
      step
        (fun w ->
          if not (Hashtbl.mem dist w) then begin
            Hashtbl.replace dist w (d + 1);
            Queue.add w q
          end)
        g v
  done;
  dist

let ball g sources ~d =
  let dist = Hashtbl.create 64 in
  let q = Queue.create () in
  List.iter
    (fun s ->
      if not (Hashtbl.mem dist s) then begin
        Hashtbl.replace dist s 0;
        Queue.add s q
      end)
    sources;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    let dv = Hashtbl.find dist v in
    if dv < d then begin
      let visit w =
        if not (Hashtbl.mem dist w) then begin
          Hashtbl.replace dist w (dv + 1);
          Queue.add w q
        end
      in
      Digraph.iter_succ visit g v;
      Digraph.iter_pred visit g v
    end
  done;
  dist

type work = { mutable visited : int; mutable relaxed : int }

let reaches ?(within = fun _ -> true) ?work g u v =
  if u = v then true
  else begin
    let seen = Hashtbl.create 64 in
    Hashtbl.replace seen u ();
    let stack = Stack.create () in
    Stack.push u stack;
    let found = ref false in
    let count f = match work with Some k -> f k | None -> () in
    (try
       while not (Stack.is_empty stack) do
         let x = Stack.pop stack in
         count (fun k -> k.visited <- k.visited + 1);
         Digraph.iter_succ
           (fun w ->
             count (fun k -> k.relaxed <- k.relaxed + 1);
             if w = v then begin
               found := true;
               raise Exit
             end;
             if (not (Hashtbl.mem seen w)) && within w then begin
               Hashtbl.replace seen w ();
               Stack.push w stack
             end)
           g x
       done
     with Exit -> ());
    !found
  end
