(* Stack depth of the lazy-splitting reduce.  At P = 1 a grainless
   [Par.parallel_reduce] never finds its deque empty after the first
   split, so the whole range runs through the chunk branch; that branch
   must be a loop, not one stack frame per chunk.  The dune rule runs
   this binary with OCAMLRUNPARAM=l=1M (a one-million-word stack limit),
   under which a frame per 16 elements overflows long before 10M. *)

module Pool = Abp_hood.Pool
module Par = Abp_hood.Par

let reduce_10m_at_p1 () =
  let n = 10_000_000 in
  let pool = Pool.create ~processes:1 () in
  let got =
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () ->
        Pool.run pool (fun () ->
            Par.parallel_reduce ~lo:0 ~hi:n ~init:0 ~combine:( + ) (fun i -> i)))
  in
  Alcotest.(check int) "sum 0..n-1" (n * (n - 1) / 2) got

let () =
  Alcotest.run "abp-stack"
    [
      ( "reduce-stack",
        [ Alcotest.test_case "10M-element reduce at P=1 in a 1M-word stack" `Quick reduce_10m_at_p1 ] );
    ]
