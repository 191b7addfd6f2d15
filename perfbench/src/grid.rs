//! The `grid_dc` deck: a seeded 2-D resistive mesh with NMOS loads and
//! PMOS pull-ups whose gates hang on the drive source, so the centre
//! node's DC level is a nonlinear function of the drive. Its size
//! (≈580 MNA unknowns) puts every DC solve on the sparse LU path, where
//! the fill-reducing ordering matters.

use std::fmt::Write as _;

use crate::util::Rng;

/// Mesh side length.
pub const SIDE: usize = 24;

/// The one DC description file of the workload.
pub const DC_CONFIG: &str = "\
macro type: grid mesh
test configuration: DC output
control VIN: dc(lev)
observe out: dc()
return: dV(out)
parameter lev: 0.5 .. 4.5
variable box_rel: 0.001
variable box_offset: 0.1
variable box_floor: 1e-5
seed lev: 2.5
";

fn node(r: usize, c: usize) -> String {
    if r == SIDE / 2 && c == SIDE / 2 {
        "out".to_string()
    } else {
        format!("n{r}_{c}")
    }
}

/// Deck text for one seed: the topology is fixed, the seed draws the
/// resistor values and the device widths.
pub fn deck(seed: u64) -> String {
    let mut rng = Rng::derive(seed, 2);
    let mut d = String::new();
    let _ = writeln!(d, ".title grid mesh {SIDE}x{SIDE}");
    d.push_str(".model nload nmos (vto=0.7 kp=1e-4 lambda=0.02)\n");
    d.push_str(".model pup pmos (vto=-0.8 kp=4e-5 lambda=0.02)\n");
    d.push_str("VDD vdd 0 DC 5\n");
    d.push_str("VIN drv 0 DC 2.5\n");
    for r in 0..SIDE {
        for c in 0..SIDE {
            if c + 1 < SIDE {
                let ohms = rng.range(800.0, 1200.0);
                let _ = writeln!(d, "RH{r}_{c} {} {} {ohms:.1}", node(r, c), node(r, c + 1));
            }
            if r + 1 < SIDE {
                let ohms = rng.range(800.0, 1200.0);
                let _ = writeln!(d, "RV{r}_{c} {} {} {ohms:.1}", node(r, c), node(r + 1, c));
            }
        }
    }
    // Pull-ups along the top row and the left column.
    for k in 0..SIDE {
        for (tag, n) in [("T", node(0, k)), ("L", node(k, 0))] {
            if tag == "L" && k == 0 {
                continue; // the corner already has its top-row pull-up
            }
            let w = rng.range(4e-6, 12e-6);
            let _ = writeln!(d, "MP{tag}{k} {n} drv vdd vdd pup W={w:.3e} L=2e-6");
        }
    }
    // NMOS loads on every eighth node, in a staggered pattern.
    for r in 0..SIDE {
        for c in 0..SIDE {
            if (r * 3 + c) % 8 == 0 {
                let w = rng.range(2e-6, 8e-6);
                let _ = writeln!(d, "ML{r}_{c} {} drv 0 0 nload W={w:.3e} L=2e-6", node(r, c));
            }
        }
    }
    // A weak tie keeps the far corner referenced at any drive level.
    let _ = writeln!(d, "RTIE {} 0 100000", node(SIDE - 1, SIDE - 1));
    d.push_str(".end\n");
    d
}
