(* Schema check shared by the BENCH_*.json writers: the written file must
   contain every required key and have balanced braces and brackets.
   On failure it prints "<label> schema check FAILED ..." and exits 1,
   which is what the CI smoke steps assert. *)
let check ~label ~required path =
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let contains affix =
    let n = String.length affix and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
    n = 0 || go 0
  in
  let missing = List.filter (fun k -> not (contains k)) required in
  let balanced open_c close_c =
    let depth = ref 0 and ok = ref true in
    String.iter
      (fun ch ->
        if ch = open_c then incr depth
        else if ch = close_c then begin
          decr depth;
          if !depth < 0 then ok := false
        end)
      s;
    !ok && !depth = 0
  in
  if missing <> [] then begin
    Printf.eprintf "%s schema check FAILED; missing: %s\n" label (String.concat ", " missing);
    exit 1
  end;
  if not (balanced '{' '}' && balanced '[' ']') then begin
    Printf.eprintf "%s schema check FAILED: unbalanced braces\n" label;
    exit 1
  end
