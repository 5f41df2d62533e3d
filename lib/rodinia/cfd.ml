(** Unstructured CFD solver (Rodinia cfd / euler3d): per-element flux
    computation over an unstructured mesh with four neighbours per
    element and five conserved variables (density, 3-momentum,
    energy), followed by an explicit time-step update, iterated a few
    times. Neighbour indirection makes the loads hard to coalesce.
    Returns the density field. Every variable starts in [1, 2), so the
    kinetic term [0.5 |m|^2 / d] is at most 6; the host raises the
    energy by 6 so the pressure, and with it [sqrtf]'s argument, stays
    positive. *)

let source =
  {|
#define NNB 4
#define NVAR 5

__global__ void compute_flux(float* vars, int* nbrs, float* fluxes, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    float di = vars[0 * n + i];
    float mxi = vars[1 * n + i];
    float myi = vars[2 * n + i];
    float mzi = vars[3 * n + i];
    float ei = vars[4 * n + i];
    float f0 = 0.0f;
    float f1 = 0.0f;
    float f2 = 0.0f;
    float f3 = 0.0f;
    float f4 = 0.0f;
    for (int k = 0; k < NNB; k++) {
      int nb = nbrs[k * n + i];
      float dn = vars[0 * n + nb];
      float mxn = vars[1 * n + nb];
      float myn = vars[2 * n + nb];
      float mzn = vars[3 * n + nb];
      float en = vars[4 * n + nb];
      float pi = 0.4f * (ei - 0.5f * (mxi * mxi + myi * myi + mzi * mzi) / di);
      float pn = 0.4f * (en - 0.5f * (mxn * mxn + myn * myn + mzn * mzn) / dn);
      float c = sqrtf(1.4f * (pi + pn) / (di + dn));
      f0 += 0.5f * (dn - di) * c;
      f1 += 0.5f * (mxn - mxi) * c + 0.5f * (pn - pi);
      f2 += 0.5f * (myn - myi) * c;
      f3 += 0.5f * (mzn - mzi) * c;
      f4 += 0.5f * (en - ei) * c + 0.25f * (pn + pi) * c;
    }
    fluxes[0 * n + i] = f0;
    fluxes[1 * n + i] = f1;
    fluxes[2 * n + i] = f2;
    fluxes[3 * n + i] = f3;
    fluxes[4 * n + i] = f4;
  }
}

__global__ void time_step(float* vars, float* fluxes, int n, float dt) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    for (int v = 0; v < NVAR; v++) {
      vars[v * n + i] += dt * fluxes[v * n + i];
    }
  }
}

float* main(int n, int iters) {
  float* hvars = (float*)malloc(NVAR * n * sizeof(float));
  int* hnbrs = (int*)malloc(NNB * n * sizeof(int));
  fill_rand_range(hvars, 161, 1.0f, 2.0f);
  fill_int_rand(hnbrs, 162, n);
  for (int i = 0; i < n; i++) {
    hvars[4 * n + i] += 6.0f;
  }
  float* dvars; int* dnbrs; float* dfluxes;
  cudaMalloc((void**)&dvars, NVAR * n * sizeof(float));
  cudaMalloc((void**)&dnbrs, NNB * n * sizeof(int));
  cudaMalloc((void**)&dfluxes, NVAR * n * sizeof(float));
  cudaMemcpy(dvars, hvars, NVAR * n * sizeof(float), cudaMemcpyHostToDevice);
  cudaMemcpy(dnbrs, hnbrs, NNB * n * sizeof(int), cudaMemcpyHostToDevice);
  int grid = (n + 127) / 128;
  for (int it = 0; it < iters; it++) {
    compute_flux<<<grid, 128>>>(dvars, dnbrs, dfluxes, n);
    time_step<<<grid, 128>>>(dvars, dfluxes, n, 0.001f);
  }
  cudaMemcpy(hvars, dvars, NVAR * n * sizeof(float), cudaMemcpyDeviceToHost);
  return hvars;
}
|}

let reference args =
  match args with
  | [ n; iters ] ->
      let nvar = 5 and nnb = 4 in
      let vars = Bench_def.rand_range 161 1. 2. (nvar * n) in
      for i = 0 to n - 1 do
        vars.((4 * n) + i) <- vars.((4 * n) + i) +. 6.
      done;
      let nbrs = Bench_def.rand_int_array 162 n (nnb * n) in
      let fluxes = Array.make (nvar * n) 0. in
      for _ = 1 to iters do
        for i = 0 to n - 1 do
          let di = vars.((0 * n) + i)
          and mxi = vars.((1 * n) + i)
          and myi = vars.((2 * n) + i)
          and mzi = vars.((3 * n) + i)
          and ei = vars.((4 * n) + i) in
          let f = Array.make 5 0. in
          for k = 0 to nnb - 1 do
            let nb = nbrs.((k * n) + i) in
            let dn = vars.((0 * n) + nb)
            and mxn = vars.((1 * n) + nb)
            and myn = vars.((2 * n) + nb)
            and mzn = vars.((3 * n) + nb)
            and en = vars.((4 * n) + nb) in
            let pi = 0.4 *. (ei -. (0.5 *. ((mxi *. mxi) +. (myi *. myi) +. (mzi *. mzi)) /. di)) in
            let pn = 0.4 *. (en -. (0.5 *. ((mxn *. mxn) +. (myn *. myn) +. (mzn *. mzn)) /. dn)) in
            let c = sqrt (1.4 *. (pi +. pn) /. (di +. dn)) in
            f.(0) <- f.(0) +. (0.5 *. (dn -. di) *. c);
            f.(1) <- f.(1) +. (0.5 *. (mxn -. mxi) *. c) +. (0.5 *. (pn -. pi));
            f.(2) <- f.(2) +. (0.5 *. (myn -. myi) *. c);
            f.(3) <- f.(3) +. (0.5 *. (mzn -. mzi) *. c);
            f.(4) <- f.(4) +. (0.5 *. (en -. ei) *. c) +. (0.25 *. (pn +. pi) *. c)
          done;
          for v = 0 to 4 do
            fluxes.((v * n) + i) <- f.(v)
          done
        done;
        for i = 0 to n - 1 do
          for v = 0 to 4 do
            vars.((v * n) + i) <- vars.((v * n) + i) +. (0.001 *. fluxes.((v * n) + i))
          done
        done
      done;
      vars
  | _ -> invalid_arg "cfd expects [n; iters]"

let bench : Bench_def.t =
  {
    name = "cfd";
    description = "euler3d-style flux + time-step kernels over an unstructured mesh";
    args = [ 16384; 4 ];
    test_args = [ 800; 2 ];
    perf_args = [ 65536; 4 ];
    data_dependent_host = false;
    source;
    reference;
    tolerance = 1e-4;
    fp64 = false;
  }
