// Service-mode emitters: one stdout table, one JSON document (the
// artifact CI's serve gate validates and uploads, `ndf_serve
// --json=BENCH_serve.json`) and one per-job CSV per serve run. A cell's
// coordinates, its summary and one job are each one record
// (serve/report.cpp) rendered by support/report.hpp; docs/metrics.md
// defines every column ("Service-mode columns").
#pragma once

#include <iosfwd>

#include "serve/engine.hpp"
#include "support/table.hpp"

namespace ndf::serve {

/// Cell-level summary table: one row per (machine, σ, policy) cell with
/// throughput, utilization, fairness, latency percentiles and deadline
/// counts. Measured cells (--misses) get `comm_cost` + `Q_L<i>` columns.
Table summary_table(const std::string& title,
                    const std::vector<ServeCell>& cells);

/// {"serve": <name>, "cells": [{machine, policy, sigma, summary: {...},
/// jobs: [{...}, ...]}, ...]} — cell aggregates plus every job's record
/// (tenant, arrival, start, completion, latency, deadline, per-job Q_i
/// when measured). Doubles are round-trippable; inf/nan become null.
void write_serve_json(std::ostream& os, const std::string& name,
                      const std::vector<ServeCell>& cells);

/// Flat per-job CSV: one header row + one row per (cell, job), cell
/// coordinates repeated per row. Measured runs append comm_cost/q_l<i>.
void write_serve_csv(std::ostream& os, const std::vector<ServeCell>& cells);

}  // namespace ndf::serve
