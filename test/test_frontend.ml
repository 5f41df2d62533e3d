(** Frontend tests: parsing and lowering of mini-CUDA, functional
    execution of the lowered module, and integration with coarsening. *)

open Pgpu_ir
module Frontend = Pgpu_frontend.Frontend
module Runtime = Pgpu_runtime.Runtime
module Exec = Pgpu_gpusim.Exec
module Descriptor = Pgpu_target.Descriptor
module Pipeline = Pgpu_transforms.Pipeline

let ( !: ) = Alcotest.test_case

let run ?(target = Descriptor.a100) src args =
  let m = Frontend.compile_string src in
  Verify.check_exn m;
  let results, st = Runtime.run (Runtime.default_config target) m args in
  (List.map Runtime.buffer_contents results, st)

let vecadd_src =
  {|
#define BS 256

__global__ void vecadd(float* a, float* b, float* c, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    c[i] = a[i] + b[i];
  }
}

float* main(int n) {
  float* ha = (float*)malloc(n * sizeof(float));
  float* hb = (float*)malloc(n * sizeof(float));
  float* hc = (float*)malloc(n * sizeof(float));
  fill_rand(ha, 11);
  fill_rand(hb, 22);
  float* da; float* db; float* dc;
  cudaMalloc((void**)&da, n * sizeof(float));
  cudaMalloc((void**)&db, n * sizeof(float));
  cudaMalloc((void**)&dc, n * sizeof(float));
  cudaMemcpy(da, ha, n * sizeof(float), cudaMemcpyHostToDevice);
  cudaMemcpy(db, hb, n * sizeof(float), cudaMemcpyHostToDevice);
  int grid = (n + BS - 1) / BS;
  vecadd<<<grid, BS>>>(da, db, dc, n);
  cudaMemcpy(hc, dc, n * sizeof(float), cudaMemcpyDeviceToHost);
  return hc;
}
|}

let test_vecadd () =
  let n = 1000 in
  let outs, _ = run vecadd_src [ Exec.UI n ] in
  Kernels.check_floats ~tol:1e-9 "vecadd" (Kernels.vecadd_expected n) (List.hd outs)

let reduce_src =
  {|
__global__ void reduce(float* in, float* out) {
  __shared__ float smem[256];
  int t = threadIdx.x;
  int i = blockIdx.x * 256 + t;
  smem[t] = in[i];
  __syncthreads();
  for (int k = 0; k < 8; k++) {
    int s = 128 >> k;
    if (t < s) {
      smem[t] += smem[t + s];
    }
    __syncthreads();
  }
  if (t == 0) {
    out[blockIdx.x] = smem[0];
  }
}

float* main(int nb) {
  int n = nb * 256;
  float* hin = (float*)malloc(n * sizeof(float));
  float* hout = (float*)malloc(nb * sizeof(float));
  fill_rand(hin, 7);
  float* din; float* dout;
  cudaMalloc((void**)&din, n * sizeof(float));
  cudaMalloc((void**)&dout, nb * sizeof(float));
  cudaMemcpy(din, hin, n * sizeof(float), cudaMemcpyHostToDevice);
  reduce<<<nb, 256>>>(din, dout);
  cudaMemcpy(hout, dout, nb * sizeof(float), cudaMemcpyDeviceToHost);
  return hout;
}
|}

let test_reduce () =
  let outs, _ = run reduce_src [ Exec.UI 6 ] in
  Kernels.check_floats ~tol:1e-6 "reduce" (Kernels.reduce_expected 6) (List.hd outs)

let matmul_src =
  {|
#define TS 16

__global__ void matmul(float* a, float* b, float* c, int n) {
  __shared__ float ta[16][16];
  __shared__ float tb[16][16];
  int tx = threadIdx.x;
  int ty = threadIdx.y;
  int col = blockIdx.x * TS + tx;
  int row = blockIdx.y * TS + ty;
  float acc = 0.0f;
  for (int k = 0; k < n / TS; k++) {
    ta[ty][tx] = a[row * n + k * TS + tx];
    tb[ty][tx] = b[(k * TS + ty) * n + col];
    __syncthreads();
    for (int e = 0; e < TS; e++) {
      acc += ta[ty][e] * tb[e][tx];
    }
    __syncthreads();
  }
  c[row * n + col] = acc;
}

float* main(int ntiles) {
  int n = ntiles * TS;
  float* ha = (float*)malloc(n * n * sizeof(float));
  float* hb = (float*)malloc(n * n * sizeof(float));
  float* hc = (float*)malloc(n * n * sizeof(float));
  fill_rand(ha, 1);
  fill_rand(hb, 2);
  float* da; float* db; float* dc;
  cudaMalloc((void**)&da, n * n * sizeof(float));
  cudaMalloc((void**)&db, n * n * sizeof(float));
  cudaMalloc((void**)&dc, n * n * sizeof(float));
  cudaMemcpy(da, ha, n * n * sizeof(float), cudaMemcpyHostToDevice);
  cudaMemcpy(db, hb, n * n * sizeof(float), cudaMemcpyHostToDevice);
  dim3 grid(ntiles, ntiles);
  dim3 block(TS, TS);
  matmul<<<grid, block>>>(da, db, dc, n);
  cudaMemcpy(hc, dc, n * n * sizeof(float), cudaMemcpyDeviceToHost);
  return hc;
}
|}

let matmul_expected ntiles =
  let n = ntiles * 16 in
  let a = Runtime.rand_array 1 (n * n) and b = Runtime.rand_array 2 (n * n) in
  List.init (n * n) (fun idx ->
      let row = idx / n and col = idx mod n in
      let acc = ref 0. in
      for k = 0 to n - 1 do
        acc := !acc +. (a.((row * n) + k) *. b.((k * n) + col))
      done;
      !acc)

let test_matmul () =
  let outs, _ = run matmul_src [ Exec.UI 3 ] in
  Kernels.check_floats ~tol:1e-5 "matmul" (matmul_expected 3) (List.hd outs)

(* early return, &&, compound ops, while loop on host *)
let misc_src =
  {|
__global__ void clamp_scale(float* x, int n, float lo, float hi) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i >= n) return;
  float v = x[i];
  if (v < lo || v > hi) {
    v = v < lo ? lo : hi;
  }
  if (i > 0 && i < n - 1) {
    v *= 2.0f;
  }
  x[i] = v;
}

float* main(int n) {
  float* h = (float*)malloc(n * sizeof(float));
  fill_rand_range(h, 5, 0.0f, 4.0f);
  float* d;
  cudaMalloc((void**)&d, n * sizeof(float));
  cudaMemcpy(d, h, n * sizeof(float), cudaMemcpyHostToDevice);
  int launches = 0;
  while (launches < 2) {
    clamp_scale<<<(n + 63) / 64, 64>>>(d, n, 1.0f, 3.0f);
    launches++;
  }
  cudaMemcpy(h, d, n * sizeof(float), cudaMemcpyDeviceToHost);
  return h;
}
|}

let misc_expected n =
  let data = Array.map (fun r -> 0. +. (4. *. r)) (Runtime.rand_array 5 n) in
  let pass v i =
    let v = if v < 1. then 1. else if v > 3. then 3. else v in
    if i > 0 && i < n - 1 then v *. 2. else v
  in
  let once = Array.mapi (fun i v -> pass v i) data in
  Array.to_list (Array.mapi (fun i v -> pass v i) once)

let test_misc () =
  let n = 100 in
  let outs, st = run misc_src [ Exec.UI n ] in
  Kernels.check_floats ~tol:1e-6 "clamp_scale" (misc_expected n) (List.hd outs);
  Alcotest.(check int) "two launches from host while loop" 2
    (List.length (Runtime.records st))

let test_frontend_coarsen_integration () =
  (* compile the matmul source, coarsen it, and check outputs *)
  let m = Frontend.compile_string matmul_src in
  let specs = Pipeline.specs_of_totals [ (1, 1); (2, 2); (4, 1); (1, 4) ] in
  let opts = { (Pipeline.default_options Descriptor.a100) with Pipeline.coarsen_specs = specs } in
  let m', report = Pipeline.compile opts m in
  (* all four configurations must survive pruning for this kernel *)
  (match report.Pipeline.kernels with
  | [ { Pipeline.candidates; _ } ] ->
      List.iter
        (fun (c : Pgpu_transforms.Alternatives.candidate) ->
          match c.Pgpu_transforms.Alternatives.decision with
          | Pgpu_transforms.Alternatives.Kept -> ()
          | d ->
              Alcotest.failf "candidate %s pruned: %a" c.Pgpu_transforms.Alternatives.desc
                Pgpu_transforms.Alternatives.pp_decision d)
        candidates
  | _ -> Alcotest.fail "expected one kernel report");
  let expected = matmul_expected 4 in
  List.iter
    (fun fixed ->
      let config = { (Runtime.default_config Descriptor.a100) with Runtime.fixed_choice = fixed } in
      let results, _ = Runtime.run config m' [ Exec.UI 4 ] in
      Kernels.check_floats ~tol:1e-5 (Fmt.str "matmul alt %d" fixed) expected
        (Runtime.buffer_contents (List.hd results)))
    [ 0; 1; 2; 3 ]

let test_parse_errors () =
  let bad = [ "__global__ void k() { break; }"; "int main() { return 1 }" ] in
  List.iter
    (fun src ->
      match Frontend.compile_string src with
      | exception Frontend.Error _ -> ()
      | _ -> Alcotest.failf "expected a frontend error for %S" src)
    bad

let test_double_promotion () =
  (* double-typed source must produce fp64 lane operations *)
  let src =
    {|
__global__ void scale(double* x, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) x[i] = x[i] * 3.0;
}

float* main(int n) {
  double* h = (double*)malloc(n * sizeof(double));
  fill_rand(h, 3);
  double* d;
  cudaMalloc((void**)&d, n * sizeof(double));
  cudaMemcpy(d, h, n * sizeof(double), cudaMemcpyHostToDevice);
  scale<<<(n + 31) / 32, 32>>>(d, n);
  cudaMemcpy(h, d, n * sizeof(double), cudaMemcpyDeviceToHost);
  return h;
}
|}
  in
  let m = Frontend.compile_string src in
  Verify.check_exn m;
  let results, st = Runtime.run (Runtime.default_config Descriptor.a100) m [ Exec.UI 64 ] in
  let got = Runtime.buffer_contents (List.hd results) in
  let expected = Array.to_list (Array.map (fun r -> r *. 3.) (Runtime.rand_array 3 64)) in
  Kernels.check_floats ~tol:1e-12 "double scale" expected got;
  match Runtime.records st with
  | [ r ] ->
      Alcotest.(check bool) "fp64 lanes counted" true
        (r.Runtime.result.Exec.counters.Pgpu_gpusim.Counters.lane_fp64 > 0.)
  | _ -> Alcotest.fail "expected one launch"

let suite =
  [
    ( "frontend",
      [
        !:"vecadd from source" `Quick test_vecadd;
        !:"reduction from source" `Quick test_reduce;
        !:"tiled matmul (2-D, shared, dim3)" `Quick test_matmul;
        !:"early return, short-circuit, host while" `Quick test_misc;
        !:"frontend + coarsening integration" `Quick test_frontend_coarsen_integration;
        !:"parse errors" `Quick test_parse_errors;
        !:"double precision lanes" `Quick test_double_promotion;
      ] );
  ]
