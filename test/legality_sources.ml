(* MiniACC sources that exercise the dependence-legality rules: the
   race detector's positive and negative cases per dependence class
   (SAF010/SAF011) and the block-parallel prover's verdicts. The check
   and sim suites assert on them one by one; the legality golden
   snapshots every one of them. *)

let wrap_loop ?(sched = "gang vector(128)") body =
  Printf.sprintf
    {|
param int n;
double a[n];
double b[n];
out double c[n];
#pragma acc kernels name(k)
{
  #pragma acc loop %s
  for (i = 1; i < n - 1; i++) {
    %s
  }
}
|}
    sched body

let miv ~outer_sched ~rhs =
  Printf.sprintf
    {|
param int n;
param int m;
double a[n][m];
out double c[n][m];
#pragma acc kernels name(k)
{
  #pragma acc loop %s
  for (i = 1; i < n - 1; i++) {
    #pragma acc loop seq
    for (j = 1; j < m - 1; j++) {
      c[i][j] = %s;
    }
  }
}
|}
    outer_sched rhs

let accumulator ~clause =
  Printf.sprintf
    {|
param int n;
double a[n];
out double c[n];
#pragma acc kernels name(k)
{
  double s = 0.0;
  #pragma acc loop gang vector(128) %s
  for (i = 0; i < n; i++) {
    s = s + a[i];
  }
  c[0] = s;
}
|}
    clause

(* --- race detector ---------------------------------------------------- *)

let siv_flow = wrap_loop "c[i] = c[i-1] + a[i];"
let siv_independent = wrap_loop "c[i] = a[i] * b[i];"

(* every iteration writes the same element: output dependence *)
let ziv_race = wrap_loop "c[0] = a[i];"

(* constant subscripts that never collide: no dependence *)
let ziv_distinct =
  {|
param int n;
double a[n];
out double c[n];
#pragma acc kernels name(k)
{
  #pragma acc loop seq
  for (i = 1; i < n - 1; i++) {
    c[i] = a[1] + a[2];
  }
}
|}

(* c[i][j] <- c[i-1][j+1]: distance (1,-1), carried by the parallel
   outer loop *)
let miv_race = miv ~outer_sched:"gang vector(64)" ~rhs:"c[i-1][j+1] + 1.0"

(* c[i][j] <- c[i][j-1]: carried only by the inner seq loop, so the
   parallel outer loop is race-free *)
let miv_inner_carried =
  miv ~outer_sched:"gang vector(64)" ~rhs:"c[i][j-1] + 1.0"

(* both iterations read a[i-1]; reads never race *)
let read_read = wrap_loop "c[i] = a[i-1] + a[i+1];"
let seq_loop = wrap_loop ~sched:"seq" "c[i] = c[i-1] + a[i];"
let scalar_recurrence = accumulator ~clause:""
let declared_reduction = accumulator ~clause:"reduction(+:s)"

(* --- block-parallel prover -------------------------------------------- *)

let saxpy =
  {|
param int n;
in double x[n];
double y[n];
#pragma acc kernels name(saxpy)
{
  #pragma acc loop gang vector(32)
  for (i = 0; i <= n - 1; i++) {
    y[i] = 2.0 * x[i] + y[i];
  }
}
|}

(* recurrence across the gang-distributed index: the write y[i] and
   the read y[i-1] are one apart *)
let blocking_dep =
  {|
param int n;
in double x[n];
double y[n];
#pragma acc kernels name(scan)
{
  #pragma acc loop gang vector(32)
  for (i = 1; i <= n - 1; i++) {
    y[i] = y[i-1] + x[i];
  }
}
|}

(* a gather from the array being written: the distance between y[i]
   and y[p[i]] is unknown *)
let unknown_distance =
  {|
param int n;
in int p[n];
in double x[n];
double y[n];
#pragma acc kernels name(gather)
{
  #pragma acc loop gang vector(32)
  for (i = 0; i <= n - 1; i++) {
    y[i] = y[p[i]] + x[i];
  }
}
|}

let atomics =
  {|
param int n;
in double x[n];
double s[1];
#pragma acc kernels name(total)
{
  double sum = 0.0;
  #pragma acc loop gang vector(32) reduction(+:sum)
  for (i = 0; i <= n - 1; i++) {
    sum += x[i];
  }
  s[0] = sum;
}
|}

(* a write outside the grid-mapped loop executes in every block *)
let unproven_write =
  {|
param int n;
double y[n];
#pragma acc kernels name(edge)
{
  #pragma acc loop gang vector(32)
  for (i = 0; i <= n - 1; i++) {
    y[i] = 1.0;
  }
  y[0] = 2.0;
}
|}

let all =
  [
    ("race-siv-flow", siv_flow);
    ("race-siv-independent", siv_independent);
    ("race-ziv", ziv_race);
    ("race-ziv-distinct", ziv_distinct);
    ("race-miv", miv_race);
    ("race-miv-inner-carried", miv_inner_carried);
    ("race-read-read", read_read);
    ("race-seq-loop", seq_loop);
    ("race-scalar-recurrence", scalar_recurrence);
    ("race-declared-reduction", declared_reduction);
    ("blockpar-saxpy", saxpy);
    ("blockpar-blocking-dep", blocking_dep);
    ("blockpar-unknown-distance", unknown_distance);
    ("blockpar-atomics", atomics);
    ("blockpar-unproven-write", unproven_write);
  ]
