let env_provenance = Bench_row.env_provenance
