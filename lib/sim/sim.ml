module Digraph = Ig_graph.Digraph
module Pattern = Ig_iso.Pattern
module Obs = Ig_obs.Obs

type node = Digraph.node

type relation = (node, unit) Hashtbl.t array
type counts = (node, int) Hashtbl.t array
type index = (int * int) list array * (int * int) list array

let candidates p g =
  Array.init (Pattern.n_nodes p) (fun u ->
      let h = Hashtbl.create 32 in
      (match Ig_graph.Interner.find (Digraph.interner g) (Pattern.label p u) with
      | None -> ()
      | Some sym ->
          List.iter (fun v -> Hashtbl.replace h v ()) (Digraph.nodes_with_label g sym));
      h)

(* Pattern edges carry dense ids; [out_edges.(u)] lists (edge id, u'). *)
let edge_index p =
  let n = Pattern.n_nodes p in
  let out_edges = Array.make n [] and in_edges = Array.make n [] in
  List.iteri
    (fun e (u, u') ->
      out_edges.(u) <- (e, u') :: out_edges.(u);
      in_edges.(u') <- (e, u) :: in_edges.(u'))
    (Pattern.edges p);
  (out_edges, in_edges)

let support_count g sets u' v =
  let c = ref 0 in
  Digraph.iter_succ
    (fun w -> if Hashtbl.mem sets.(u') w then incr c)
    g v;
  !c

(* A pair queued twice is removed once. *)
let cascade ~obs ~on_remove (out_edges, in_edges) g sets cnt doomed =
  while not (Stack.is_empty doomed) do
    let u, v = Stack.pop doomed in
    Obs.incr obs Obs.K.nodes_visited;
    if Hashtbl.mem sets.(u) v then begin
      Hashtbl.remove sets.(u) v;
      List.iter (fun (e, _) -> Hashtbl.remove cnt.(e) v) out_edges.(u);
      on_remove u v;
      List.iter
        (fun (e, tp) ->
          Digraph.iter_pred
            (fun pnode ->
              Obs.incr obs Obs.K.edges_relaxed;
              if Hashtbl.mem sets.(tp) pnode then begin
                let c = Hashtbl.find cnt.(e) pnode - 1 in
                Hashtbl.replace cnt.(e) pnode c;
                if c = 0 then begin
                  Obs.frontier_expand obs ~node:pnode;
                  Stack.push (tp, pnode) doomed
                end
              end)
            g v)
        in_edges.(u)
    end
  done

let prune p g sets =
  let ((out_edges, _) as index) = edge_index p in
  let cnt = Array.init (Pattern.n_edges p) (fun _ -> Hashtbl.create 32) in
  let doomed = Stack.create () in
  (* Initial counts; pairs with an unsupported pattern edge die first. *)
  Array.iteri
    (fun u set ->
      (* Order-free: the greatest fixpoint is unique, so the worklist
         order cannot change the pruned result. *)
      (Hashtbl.iter [@lint.allow "D2"])
        (fun v () ->
          List.iter
            (fun (e, u') ->
              let c = support_count g sets u' v in
              Hashtbl.replace cnt.(e) v c;
              if c = 0 then Stack.push (u, v) doomed)
            out_edges.(u))
        set)
    sets;
  cascade ~obs:Obs.noop ~on_remove:(fun _ _ -> ()) index g sets cnt doomed;
  cnt

let run p g =
  let sets = candidates p g in
  ignore (prune p g sets);
  sets

(* Lexicographic (u, v) order: the pair list is user-visible. *)
let pairs rel =
  List.concat
    (Array.to_list
       (Array.mapi
          (fun u set ->
            List.map
              (fun (v, ()) -> (u, v))
              (Obs.sorted_bindings ~compare:Int.compare set))
          rel))

let mem rel u v = Hashtbl.mem rel.(u) v
