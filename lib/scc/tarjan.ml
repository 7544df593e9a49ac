module Digraph = Ig_graph.Digraph

type node = Digraph.node

type witness =
  | Wself
  | Wtree of node
  | Wdirect of node

type cert = {
  mutable num : int;
  mutable lowlink : int;
  mutable parent : node;
  mutable witness : witness;
  mutable on_stack : bool;
}

let fresh_cert () =
  { num = -1; lowlink = -1; parent = -1; witness = Wself; on_stack = false }

(* Successors come in ascending order: the DFS order decides certificate
   parents/witnesses and component member order, which reach traces and
   user-visible output. *)
let run_with_cert ?work g ~restrict ~nodes ~cert =
  List.iter
    (fun v ->
      let c = cert v in
      c.num <- -1;
      c.on_stack <- false)
    nodes;
  let index = ref 0 in
  let sccs = ref [] in
  let tarjan_stack = ref [] in
  let frames = Stack.create () in
  let push_node v parent =
    let c = cert v in
    c.num <- !index;
    c.lowlink <- !index;
    incr index;
    c.parent <- parent;
    c.witness <- Wself;
    c.on_stack <- true;
    tarjan_stack := v :: !tarjan_stack;
    let succs = ref [] in
    Digraph.iter_succ (fun w -> if restrict w then succs := w :: !succs) g v;
    (match work with
    | Some (w : Ig_graph.Traverse.work) ->
        w.visited <- w.visited + 1;
        w.relaxed <- w.relaxed + Digraph.out_degree g v
    | None -> ());
    Stack.push (v, c, succs) frames
  in
  let visit_root v =
    if restrict v && (cert v).num = -1 then begin
      push_node v (-1);
      while not (Stack.is_empty frames) do
        let u, cu, succs = Stack.top frames in
        match !succs with
        | w :: rest -> begin
            succs := rest;
            let cw = cert w in
            if cw.num = -1 then push_node w u
            else if cw.on_stack && cw.num < cu.lowlink then begin
              cu.lowlink <- cw.num;
              cu.witness <- Wdirect w
            end
          end
        | [] ->
            ignore (Stack.pop frames);
            if cu.lowlink = cu.num then begin
              (* [u] is the root of a component: pop it off the stack. *)
              let comp = ref [] in
              let again = ref true in
              while !again do
                match !tarjan_stack with
                | [] -> assert false
                | x :: rest ->
                    tarjan_stack := rest;
                    (cert x).on_stack <- false;
                    comp := x :: !comp;
                    if x = u then again := false
              done;
              sccs := !comp :: !sccs
            end;
            (match Stack.top_opt frames with
            | Some (_, cp, _) ->
                if cu.lowlink < cp.lowlink then begin
                  cp.lowlink <- cu.lowlink;
                  cp.witness <- Wtree u
                end
            | None -> ())
      done
    end
  in
  List.iter visit_root nodes;
  List.rev !sccs

let scc g =
  let n = Digraph.n_nodes g in
  let certs = Array.init n (fun _ -> fresh_cert ()) in
  run_with_cert g
    ~restrict:(fun _ -> true)
    ~nodes:(List.init n Fun.id)
    ~cert:(fun v -> certs.(v))
