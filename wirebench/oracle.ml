(* Expected outputs of the Stanford entry calls, from the tree
   evaluator — never from the engine under test.

   The n-th call of an entry depends only on its own program's globals
   (the preloaded programs share no names), so the oracle for a program
   is the sequence of outputs of calls 1, 2, ... of its entry on a fresh
   tree-evaluated instance of that program alone. *)

open Tml_frontend

let memo : (string, string array) Hashtbl.t = Hashtbl.create 16

let run_tree prog calls =
  Tml_query.Qprims.install ();
  let p = Link.load (Workload.stanford_source prog) in
  Array.init calls (fun i ->
      let before = String.length (Link.output p) in
      match Link.run_function p (Workload.entry_name prog) [] ~engine:`Tree with
      | Tml_vm.Eval.Done (Tml_vm.Value.Int 0), _ ->
        let all = Link.output p in
        String.sub all before (String.length all - before)
      | o, _ ->
        failwith
          (Format.asprintf "tree oracle: %s call %d: %a" prog (i + 1) Tml_vm.Eval.pp_outcome o))

let output prog n =
  let have = Option.value ~default:[||] (Hashtbl.find_opt memo prog) in
  if Array.length have < n then Hashtbl.replace memo prog (run_tree prog n);
  (Hashtbl.find memo prog).(n - 1)
