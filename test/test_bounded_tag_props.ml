(* Property tests for Bounded_tag (paper Section 3.3): the modular tag
   arithmetic itself, and — via the model-checked production deque — the
   safety threshold it encodes: a thief whose steal spans r owner resets
   is safe iff r < 2^width (the [safe_window] predicate), and at exactly
   r = 2^width the wraparound ABA violation becomes reachable. *)

module Bt = Abp_deque.Bounded_tag
module Dc = Abp_mcheck.Deque_checks

let rec iterate_succ ~width k tag = if k = 0 then tag else iterate_succ ~width (k - 1) (Bt.succ ~width tag)

(* distance inverts iterated succ, for any in-range start and step count. *)
let prop_distance_inverts_succ =
  QCheck2.Test.make ~name:"distance inverts iterated succ" ~count:200
    QCheck2.Gen.(triple (int_range 1 12) (int_range 0 4095) (int_range 0 4095))
    (fun (width, a0, k0) ->
      let m = 1 lsl width in
      let a = a0 mod m and k = k0 mod m in
      Bt.distance ~width a (iterate_succ ~width k a) = k)

(* Exactly 2^width increments return the tag to itself — the wraparound
   the safety window must exclude. *)
let prop_wraparound_period =
  QCheck2.Test.make ~name:"succ has period exactly 2^width" ~count:60
    QCheck2.Gen.(pair (int_range 1 12) (int_range 0 4095))
    (fun (width, a0) ->
      let m = 1 lsl width in
      let a = a0 mod m in
      iterate_succ ~width m a = a
      && (width = 0 || iterate_succ ~width (m - 1) a <> a))

let prop_safe_window_iff_below_modulus =
  QCheck2.Test.make ~name:"safe_window iff in_flight < 2^width" ~count:200
    QCheck2.Gen.(pair (int_range 0 16) (int_range 0 200_000))
    (fun (width, r) -> Bt.safe_window ~width ~in_flight_resets:r = (r < 1 lsl width))

(* An owner doing r push/pop pairs performs r tag increments (each pop of
   the last element resets the deque, bumping the tag); a single
   in-flight thief can span all r of them. *)
let reset_program r =
  {
    Dc.owner = List.concat (List.init r (fun i -> [ Dc.Push_bottom (i + 1); Dc.Pop_bottom ]));
    thieves = [ [ Dc.Pop_top ] ];
  }

(* The explorer finds a wraparound violation exactly when the number of
   owner resets a steal can span reaches 2^width — i.e. exactly when
   [safe_window] stops holding.  This ties the predicate to observable
   behaviour rather than to its own definition. *)
let explorer_matches_safe_window () =
  List.iter
    (fun width ->
      List.iter
        (fun r ->
          let violated = Dc.violations (Dc.explore ~tag_width:width (reset_program r)) <> [] in
          let expect_safe = Bt.safe_window ~width ~in_flight_resets:r in
          Alcotest.(check bool)
            (Printf.sprintf "width %d, %d in-flight resets: violation iff unsafe" width r)
            (not expect_safe) violated)
        [ 1; 2; 3; 4 ])
    [ 0; 1; 2 ]

(* Safety is monotone in width: any width whose window covers the resets
   verifies the same program. *)
let wide_tags_always_safe () =
  List.iter
    (fun width ->
      Alcotest.(check (list string))
        (Printf.sprintf "width %d covers 3 resets" width)
        [] (Dc.violations (Dc.explore ~tag_width:width (reset_program 3))))
    [ 2; 3; 5; Bt.max_width ]

let tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_distance_inverts_succ; prop_wraparound_period; prop_safe_window_iff_below_modulus ]
  @ [
      Alcotest.test_case "explorer violation iff outside safe window" `Quick
        explorer_matches_safe_window;
      Alcotest.test_case "wide tags verify the reset program" `Quick wide_tags_always_safe;
    ]
