module Digraph = Ig_graph.Digraph

type node = Digraph.node

let batch g src =
  let seen = Hashtbl.create 64 in
  if Digraph.mem_node g src then begin
    let stack = Stack.create () in
    Hashtbl.replace seen src ();
    Stack.push src stack;
    while not (Stack.is_empty stack) do
      let v = Stack.pop stack in
      Digraph.iter_succ
        (fun w ->
          if not (Hashtbl.mem seen w) then begin
            Hashtbl.replace seen w ();
            Stack.push w stack
          end)
        g v
    done
  end;
  seen

type t = { g : Digraph.t; src : node; mutable reach : (node, unit) Hashtbl.t }

let init g src = { g; src; reach = batch g src }

let graph t = t.g
let source t = t.src
let reaches t v = Hashtbl.mem t.reach v

let insert_edge t u v =
  if not (Digraph.add_edge t.g u v) then []
  else if Hashtbl.mem t.reach u && not (Hashtbl.mem t.reach v) then begin
    (* Bounded: BFS only into the newly reachable region. *)
    let added = ref [] in
    let stack = Stack.create () in
    Hashtbl.replace t.reach v ();
    added := v :: !added;
    Stack.push v stack;
    while not (Stack.is_empty stack) do
      let x = Stack.pop stack in
      Digraph.iter_succ
        (fun w ->
          if not (Hashtbl.mem t.reach w) then begin
            Hashtbl.replace t.reach w ();
            added := w :: !added;
            Stack.push w stack
          end)
        t.g x
    done;
    List.sort Int.compare !added
  end
  else []

let delete_edge t u v =
  if not (Digraph.remove_edge t.g u v) then []
  else if Hashtbl.mem t.reach u && Hashtbl.mem t.reach v then begin
    (* Unbounded in general: recompute and diff. *)
    let fresh = batch t.g t.src in
    let lost = ref [] in
    (* Order-free: set difference; the result is sorted below. *)
    (Hashtbl.iter [@lint.allow "D2"])
      (fun x () -> if not (Hashtbl.mem fresh x) then lost := x :: !lost)
      t.reach;
    t.reach <- fresh;
    List.sort Int.compare !lost
  end
  else []

let check_invariants t =
  let fresh = batch t.g t.src in
  if Hashtbl.length fresh <> Hashtbl.length t.reach then
    failwith "Ssrp: reachable set size drifted";
  (Hashtbl.iter [@lint.allow "D2"])
    (fun v () ->
      if not (Hashtbl.mem t.reach v) then failwith "Ssrp: missing node")
    fresh
