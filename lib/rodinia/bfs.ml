(** Breadth-first search (Rodinia bfs): CSR graph traversal with a
    frontier mask, an updating mask, and a host loop that re-launches
    the two kernels until the device sets no new vertices. Heavily
    divergent, data-dependent trip counts. Returns the cost (level)
    array. *)

let source =
  {|
__global__ void bfs_expand(int* starts, int* degrees, int* edges,
                           int* mask, int* updating, int* visited, int* cost, int n) {
  int tid = blockIdx.x * blockDim.x + threadIdx.x;
  if (tid < n && mask[tid] == 1) {
    mask[tid] = 0;
    for (int i = 0; i < degrees[tid]; i++) {
      int nb = edges[starts[tid] + i];
      if (visited[nb] == 0) {
        cost[nb] = cost[tid] + 1;
        updating[nb] = 1;
      }
    }
  }
}

__global__ void bfs_frontier(int* mask, int* updating, int* visited, int* over, int n) {
  int tid = blockIdx.x * blockDim.x + threadIdx.x;
  if (tid < n && updating[tid] == 1) {
    mask[tid] = 1;
    visited[tid] = 1;
    over[0] = 1;
    updating[tid] = 0;
  }
}

float* main(int n, int maxdeg) {
  int* hdeg = (int*)malloc(n * sizeof(int));
  int* hstart = (int*)malloc(n * sizeof(int));
  fill_int_rand(hdeg, 111, maxdeg);
  int nedges = 0;
  for (int i = 0; i < n; i++) {
    hdeg[i] = hdeg[i] + 1;
    hstart[i] = nedges;
    nedges += hdeg[i];
  }
  int* hedges = (int*)malloc(nedges * sizeof(int));
  fill_int_rand(hedges, 112, n);
  int* hmask = (int*)malloc(n * sizeof(int));
  int* hupd = (int*)malloc(n * sizeof(int));
  int* hvis = (int*)malloc(n * sizeof(int));
  int* hcost = (int*)malloc(n * sizeof(int));
  int* hover = (int*)malloc(1 * sizeof(int));
  fill_const(hmask, 0);
  fill_const(hupd, 0);
  fill_const(hvis, 0);
  fill_const(hcost, -1);
  hmask[0] = 1;
  hvis[0] = 1;
  hcost[0] = 0;
  int* dstart; int* ddeg; int* dedges; int* dmask; int* dupd; int* dvis; int* dcost; int* dover;
  cudaMalloc((void**)&dstart, n * sizeof(int));
  cudaMalloc((void**)&ddeg, n * sizeof(int));
  cudaMalloc((void**)&dedges, nedges * sizeof(int));
  cudaMalloc((void**)&dmask, n * sizeof(int));
  cudaMalloc((void**)&dupd, n * sizeof(int));
  cudaMalloc((void**)&dvis, n * sizeof(int));
  cudaMalloc((void**)&dcost, n * sizeof(int));
  cudaMalloc((void**)&dover, 1 * sizeof(int));
  cudaMemcpy(dstart, hstart, n * sizeof(int), cudaMemcpyHostToDevice);
  cudaMemcpy(ddeg, hdeg, n * sizeof(int), cudaMemcpyHostToDevice);
  cudaMemcpy(dedges, hedges, nedges * sizeof(int), cudaMemcpyHostToDevice);
  cudaMemcpy(dmask, hmask, n * sizeof(int), cudaMemcpyHostToDevice);
  cudaMemcpy(dupd, hupd, n * sizeof(int), cudaMemcpyHostToDevice);
  cudaMemcpy(dvis, hvis, n * sizeof(int), cudaMemcpyHostToDevice);
  cudaMemcpy(dcost, hcost, n * sizeof(int), cudaMemcpyHostToDevice);
  int grid = (n + 255) / 256;
  int over = 1;
  while (over == 1) {
    hover[0] = 0;
    cudaMemcpy(dover, hover, sizeof(int), cudaMemcpyHostToDevice);
    bfs_expand<<<grid, 256>>>(dstart, ddeg, dedges, dmask, dupd, dvis, dcost, n);
    bfs_frontier<<<grid, 256>>>(dmask, dupd, dvis, dover, n);
    cudaMemcpy(hover, dover, sizeof(int), cudaMemcpyDeviceToHost);
    over = hover[0];
  }
  cudaMemcpy(hcost, dcost, n * sizeof(int), cudaMemcpyDeviceToHost);
  float* out = (float*)malloc(n * sizeof(float));
  for (int k = 0; k < n; k++) {
    out[k] = (float)hcost[k];
  }
  return out;
}
|}

let reference args =
  match args with
  | [ n; maxdeg ] ->
      let deg = Array.map (fun d -> d + 1) (Bench_def.rand_int_array 111 maxdeg n) in
      let start = Array.make n 0 in
      let nedges = ref 0 in
      for i = 0 to n - 1 do
        start.(i) <- !nedges;
        nedges := !nedges + deg.(i)
      done;
      let edges = Bench_def.rand_int_array 112 n !nedges in
      let cost = Array.make n (-1) in
      cost.(0) <- 0;
      let frontier = ref [ 0 ] in
      while !frontier <> [] do
        let next = ref [] in
        List.iter
          (fun u ->
            for i = 0 to deg.(u) - 1 do
              let v = edges.(start.(u) + i) in
              if cost.(v) = -1 then begin
                cost.(v) <- cost.(u) + 1;
                next := v :: !next
              end
            done)
          (* visit in index order to stay deterministic *)
          (List.sort_uniq Int.compare !frontier);
        frontier := List.sort_uniq Int.compare !next
      done;
      Array.map float_of_int cost
  | _ -> invalid_arg "bfs expects [n; maxdeg]"

let bench : Bench_def.t =
  {
    name = "bfs";
    description = "frontier BFS over a random CSR graph with a host convergence loop";
    args = [ 65536; 4 ];
    test_args = [ 1500; 3 ];
    perf_args = [ 65536; 4 ];
    data_dependent_host = true;
    source;
    reference;
    tolerance = 0.;
    fp64 = false;
  }
