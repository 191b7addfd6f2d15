//! Fuzz target: a budgeted DC operating-point solve must never panic
//! and never run away, whatever deck arrives.
//!
//! The contract under test is the solver's robustness promise (PR 8):
//! over any circuit the frontend lowers, the Newton strategy ladder
//! either lands, or fails with a typed `Err` — no unwinds anywhere in
//! the assemble/factor/iterate stack — and the analysis-level budget
//! ([`AnalysisOptions::max_total_iter`] / `budget_ms`) actually bounds
//! the work: a solve that ignores its caps shows up here as a
//! wall-clock overrun, which panics the harness and saves the deck.
//!
//! Successful solves must also return finite state: a converged
//! residual over non-finite unknowns would mean the convergence test
//! itself is broken.
//!
//! Each deck is also solved warm-started
//! ([`DcAnalysis::solve_from`]) from a start derived from the input
//! bytes, non-finite values included. The same promises hold, and when
//! the warm rung failed and both solves converged, the warm-started
//! solve must reproduce the cold one bit for bit: the fallback is
//! exactly the cold ladder.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use castg_netlist::parse_deck;
use castg_spice::{AnalysisOptions, DcAnalysis, DcSolution, SpiceError};

/// Decks above this MNA size are skipped: the budget caps Newton
/// iterations, not factorization cost, and the mutation loop should
/// spend its time on device/topology shapes rather than giant systems.
const MAX_UNKNOWNS: usize = 192;

/// Hard wall-clock ceiling per solve. The budget below is 250 ms; a
/// solve that takes longer than this despite it has escaped its caps.
const OVERRUN: Duration = Duration::from_secs(10);

fn main() -> ExitCode {
    castg_fuzz::fuzz_main("dc_solve", |data: &[u8]| {
        let text = String::from_utf8_lossy(data);
        let Ok(deck) = parse_deck(&text) else { return };
        let circuit = deck.circuit();
        if circuit.unknown_count() == 0 || circuit.unknown_count() > MAX_UNKNOWNS {
            return;
        }
        let opts = AnalysisOptions {
            max_total_iter: Some(2_000),
            budget_ms: Some(250),
            ..AnalysisOptions::default()
        };
        let t0 = Instant::now();
        let dc = DcAnalysis::with_options(circuit, opts);
        let cold = check(dc.solve(), &text);
        let warm = check(dc.solve_from(&start_from(data, circuit.unknown_count())), &text);
        if let (Some(cold), Some(warm)) = (cold, warm) {
            if !warm.convergence().rungs[0].converged {
                let bits =
                    |s: &DcSolution| s.state().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert!(
                    bits(&warm) == bits(&cold),
                    "a failed warm start changed the cold answer:\n{text}"
                );
            }
        }
        let elapsed = t0.elapsed();
        assert!(
            elapsed < OVERRUN,
            "budgeted DC solves overran their caps: {elapsed:?} for:\n{text}"
        );
    })
}

/// Checks one solve's outcome: a converged state is finite; a failure
/// is a typed error whose `Display` works.
fn check(result: Result<DcSolution, SpiceError>, text: &str) -> Option<DcSolution> {
    match result {
        Ok(sol) => {
            assert!(
                sol.state().iter().all(|v| v.is_finite()),
                "converged DC solution has non-finite state:\n{text}"
            );
            Some(sol)
        }
        // Typed failures (no convergence, singular, timeout) are
        // legitimate outcomes for arbitrary decks; their Display paths
        // stay under fuzz.
        Err(e) => {
            let _ = e.to_string();
            None
        }
    }
}

/// A warm start of length `n` derived from the input bytes: byte
/// values spread over a decade-scaled range, with the top two byte
/// values mapped to NaN and infinity.
fn start_from(data: &[u8], n: usize) -> Vec<f64> {
    let scale = 10f64.powi(i32::from(data.first().copied().unwrap_or(0) % 8) - 3);
    (0..n)
        .map(|i| match data.get(data.len().saturating_sub(1 + i)).copied().unwrap_or(0) {
            255 => f64::NAN,
            254 => f64::INFINITY,
            b => (f64::from(b) - 128.0) * scale,
        })
        .collect()
}
