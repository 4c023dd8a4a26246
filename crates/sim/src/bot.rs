//! Replaying one bot activation as a sequence of raw DNS lookups.

use botmeter_dga::{DgaFamily, QueryTiming};
use botmeter_dns::{ClientId, RawLookup, SimDuration, SimInstant};
use rand::Rng;
use std::collections::HashSet;

/// Simulates one activation of a bot infected with `family`.
///
/// The bot draws its query barrel for `epoch`, then queries the barrel's
/// domains in order — pacing lookups per the family's `δi` timing — until
/// it hits a domain whose pool index is in `valid_indices` (the registered
/// C2 set; that final *successful* lookup is still emitted) or exhausts the
/// barrel (`θq` lookups, "aborts otherwise" in §III).
///
/// `pool` must be the family's pool for `epoch`
/// (callers pass it in so that a thousand bots share one materialised pool).
///
/// # Example
///
/// ```
/// use botmeter_dga::DgaFamily;
/// use botmeter_dns::{ClientId, SimInstant};
/// use botmeter_sim::simulate_activation;
/// use rand::SeedableRng;
///
/// let family = DgaFamily::murofet();
/// let pool = family.pool_for_epoch(0);
/// let valid = family.valid_indices(0).into_iter().collect();
/// let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(1);
/// let lookups = simulate_activation(
///     &family, 0, &pool, &valid, SimInstant::ZERO, ClientId(7), &mut rng,
/// );
/// assert!(!lookups.is_empty());
/// assert!(lookups.len() <= family.params().theta_q());
/// ```
pub fn simulate_activation<R: Rng + ?Sized>(
    family: &DgaFamily,
    epoch: u64,
    pool: &[botmeter_dns::DomainName],
    valid_indices: &HashSet<usize>,
    start: SimInstant,
    client: ClientId,
    rng: &mut R,
) -> Vec<RawLookup> {
    let barrel = family.draw_barrel(epoch, rng);
    replay_barrel(family, pool, valid_indices, barrel, start, client, rng)
}

/// Replays an explicit query barrel (the ordered pool indices to look up)
/// as timestamped raw lookups, stopping at the first valid domain.
///
/// [`simulate_activation`] draws the barrel from the family's model; this
/// entry point lets callers substitute an adversarial barrel (e.g. the
/// start-collusion evasion strategy).
pub fn replay_barrel<R: Rng + ?Sized>(
    family: &DgaFamily,
    pool: &[botmeter_dns::DomainName],
    valid_indices: &HashSet<usize>,
    barrel: Vec<usize>,
    start: SimInstant,
    client: ClientId,
    rng: &mut R,
) -> Vec<RawLookup> {
    let mut out = Vec::with_capacity(barrel.len().min(64));
    let is_valid = |idx| valid_indices.contains(&idx);
    walk_barrel(family, is_valid, barrel, start, rng, |t, idx| {
        out.push(RawLookup::new(t, client, pool[idx].clone()))
    });
    out
}

/// The barrel walk every replay shares: visits `barrel`'s pool indices in
/// order, pacing them per the family's `δi` timing from `start`, and stops
/// after the first index `is_valid` accepts (C2 reached). `emit` receives
/// each `(time, pool index)` and decides the record layout — names at the
/// edges, [`DomainId`](botmeter_dns::DomainId)s inside the pipeline — so
/// every layout consumes the identical rng stream. The membership test is
/// the caller's: the pipeline scans its θ∃-long sorted index list, with no
/// hashing per lookup.
pub(crate) fn walk_barrel<R: Rng + ?Sized>(
    family: &DgaFamily,
    is_valid: impl Fn(usize) -> bool,
    barrel: impl IntoIterator<Item = usize>,
    start: SimInstant,
    rng: &mut R,
    mut emit: impl FnMut(SimInstant, usize),
) {
    let mut t = start;
    for (k, idx) in barrel.into_iter().enumerate() {
        if k > 0 {
            t += query_gap(family.params().timing(), rng);
        }
        emit(t, idx);
        if is_valid(idx) {
            break; // C2 reached: the bot stops querying.
        }
    }
}

/// One inter-query pause draw.
fn query_gap<R: Rng + ?Sized>(timing: QueryTiming, rng: &mut R) -> SimDuration {
    match timing {
        QueryTiming::Fixed(d) => d,
        QueryTiming::Irregular { min, max } => {
            let lo = min.as_millis();
            let hi = max.as_millis().max(lo + 1);
            SimDuration::from_millis(rng.gen_range(lo..hi))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use botmeter_dga::DgaFamily;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn run_family(family: &DgaFamily, seed: u64) -> Vec<RawLookup> {
        let pool = family.pool_for_epoch(0);
        let valid: HashSet<usize> = family.valid_indices(0).into_iter().collect();
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        simulate_activation(
            family,
            0,
            &pool,
            &valid,
            SimInstant::ZERO,
            ClientId(1),
            &mut rng,
        )
    }

    #[test]
    fn uniform_bot_stops_at_first_valid_domain() {
        let family = DgaFamily::murofet();
        let lookups = run_family(&family, 1);
        let first_valid = family.valid_indices(0)[0];
        // The uniform barrel is 0,1,2,...: the bot queries exactly
        // first_valid + 1 domains (indices 0..=first_valid).
        assert_eq!(lookups.len(), first_valid + 1);
        let valid_domains = family.valid_domains(0);
        assert!(valid_domains.contains(&lookups.last().unwrap().domain));
    }

    #[test]
    fn lookups_are_paced_by_fixed_interval() {
        let family = DgaFamily::murofet(); // δi = 500 ms
        let lookups = run_family(&family, 2);
        for w in lookups.windows(2) {
            assert_eq!(
                w[1].t.as_millis() - w[0].t.as_millis(),
                500,
                "fixed 500 ms pacing"
            );
        }
    }

    #[test]
    fn irregular_timing_varies_gaps() {
        let family = DgaFamily::ramnit();
        let lookups = run_family(&family, 3);
        assert!(lookups.len() > 2);
        let gaps: HashSet<u64> = lookups
            .windows(2)
            .map(|w| w[1].t.as_millis() - w[0].t.as_millis())
            .collect();
        assert!(gaps.len() > 1, "irregular gaps must vary: {gaps:?}");
        assert!(gaps.iter().all(|&g| (100..3000).contains(&g)));
    }

    #[test]
    fn sampling_bot_may_abort_without_success() {
        // Conficker.C: 500 of 50 000 — usually misses all 5 C2s.
        let family = DgaFamily::conficker_c();
        let mut aborted = 0;
        let pool = family.pool_for_epoch(0);
        let valid: HashSet<usize> = family.valid_indices(0).into_iter().collect();
        for seed in 0..60 {
            let mut rng = ChaCha12Rng::seed_from_u64(seed);
            let lookups = simulate_activation(
                &family,
                0,
                &pool,
                &valid,
                SimInstant::ZERO,
                ClientId(1),
                &mut rng,
            );
            if lookups.len() == 500 {
                aborted += 1;
            }
            assert!(lookups.len() <= 500);
        }
        // P(hit) ≈ 1 - (1-1e-4)^500 ≈ 5% per run; over 60 runs a correct
        // sampler aborts ~57 times (σ ≈ 1.7). The ≥50 bound leaves head-room
        // for RNG-stream variation while still catching a biased sampler.
        assert!(
            aborted >= 50,
            "expected ≈95% aborts over 60 runs: {aborted}"
        );
    }

    #[test]
    fn all_lookups_come_from_pool() {
        let family = DgaFamily::new_goz();
        let pool = family.pool_for_epoch(0);
        let pool_set: HashSet<_> = pool.iter().cloned().collect();
        let lookups = run_family(&family, 5);
        assert!(lookups.iter().all(|l| pool_set.contains(&l.domain)));
    }

    #[test]
    fn client_id_propagates() {
        let family = DgaFamily::torpig();
        let pool = family.pool_for_epoch(0);
        let valid: HashSet<usize> = family.valid_indices(0).into_iter().collect();
        let mut rng = ChaCha12Rng::seed_from_u64(9);
        let lookups = simulate_activation(
            &family,
            0,
            &pool,
            &valid,
            SimInstant::from_millis(42),
            ClientId(77),
            &mut rng,
        );
        assert!(lookups.iter().all(|l| l.client == ClientId(77)));
        assert_eq!(lookups[0].t, SimInstant::from_millis(42));
    }

    #[test]
    fn at_most_one_valid_lookup_per_activation() {
        let family = DgaFamily::necurs();
        let valid_domains: HashSet<_> = family.valid_domains(0).into_iter().collect();
        for seed in 0..5 {
            let lookups = run_family(&family, seed);
            let valid_count = lookups
                .iter()
                .filter(|l| valid_domains.contains(&l.domain))
                .count();
            assert!(valid_count <= 1);
            if valid_count == 1 {
                assert!(valid_domains.contains(&lookups.last().unwrap().domain));
            }
        }
    }
}
