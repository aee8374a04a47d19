//! §6.2, the packet-level cell under Silo, TCP, DCTCP, HULL, Oktopus and
//! Okto+: Figure 12 (class-A message latency: median / 95th / 99th),
//! Figure 13 (CDF over class-A tenants of the fraction of their messages
//! that suffered a retransmission timeout), Table 4 (class-A tenants
//! whose 99th-percentile latency exceeds their estimate by 1x / 2x / 8x)
//! and Figure 14 (CDF over class-B tenants of mean latency normalized to
//! the estimate).
//!
//! One sweep simulates each scheme's `--runs` cells once; every table
//! reads it. Figs 13 and 14 show four of the six schemes.

use silo_bench::ns2::{run_ns2_sweep, Ns2Outcome, ALL_MODES};
use silo_bench::scenario::NsClass;
use silo_bench::{print_cdf, Args};
use silo_simnet::TransportMode;

fn main() {
    let args = Args::parse_unobserved();
    let outs = run_ns2_sweep(&ALL_MODES, &args);
    let four = || {
        outs.iter().filter(|o| {
            matches!(
                o.mode,
                TransportMode::Silo
                    | TransportMode::Tcp
                    | TransportMode::Hull
                    | TransportMode::Okto
            )
        })
    };
    fig12(&outs);
    fig13(four());
    tab04(&outs);
    fig14(four());
}

fn fig12(outs: &[Ns2Outcome]) {
    println!("== Fig 12: class-A message latency (ms) ==");
    println!("scheme\tmedian\tp95\tp99\tmessages");
    for out in outs {
        let mut lat = silo_base::Summary::new();
        for (run, m) in out.metrics.iter().enumerate() {
            for msg in &m.messages {
                if out.tenant_meta(run, msg.tenant).class == NsClass::A {
                    lat.record(msg.latency.as_ms_f64());
                }
            }
        }
        println!(
            "{}\t{:.2}\t{:.2}\t{:.2}\t{}",
            out.mode.label(),
            lat.median().unwrap_or(f64::NAN),
            lat.p95().unwrap_or(f64::NAN),
            lat.p99().unwrap_or(f64::NAN),
            lat.len()
        );
    }
    println!("\npaper shape: Silo lowest at every quantile; DCTCP/HULL 22x worse at p99");
    println!("(2.5x at p95); Okto ~60x worse (no bursting); Okto+ better at median, bad tail.");
}

fn fig13<'a>(outs: impl Iterator<Item = &'a Ns2Outcome>) {
    println!("== Fig 13: class-A tenants' messages with RTOs ==");
    for out in outs {
        let mut per_tenant = silo_base::Summary::new();
        for (run, m) in out.metrics.iter().enumerate() {
            for (ti, t) in out.tenants[run].iter().enumerate() {
                if t.class != NsClass::A {
                    continue;
                }
                let stats = m.tenant_stats(ti as u16);
                if stats.messages > 0 {
                    per_tenant.record(stats.rto_fraction() * 100.0);
                }
            }
        }
        let frac_with_rtos = per_tenant.frac_above(1.0);
        println!(
            "{}: tenants with >1% RTO-hit messages: {:.1}%  (paper: TCP 21%, HULL 14%, Silo 0%)",
            out.mode.label(),
            frac_with_rtos * 100.0
        );
        print_cdf(
            &format!("{} % messages with RTOs", out.mode.label()),
            &mut per_tenant,
            11,
        );
    }
}

fn tab04(outs: &[Ns2Outcome]) {
    println!("== Table 4: % outlier class-A tenants (p99 latency > k x estimate) ==");
    println!("scheme\t>1x\t>2x\t>8x\ttenants");
    for out in outs {
        let (mut o1, mut o2, mut o8, mut total) = (0usize, 0usize, 0usize, 0usize);
        for (run, m) in out.metrics.iter().enumerate() {
            for (ti, t) in out.tenants[run].iter().enumerate() {
                if t.class != NsClass::A {
                    continue;
                }
                // Per-tenant p99 of the latency / estimate ratio.
                let mut ratios = silo_base::Summary::new();
                for msg in m.messages.iter().filter(|x| x.tenant == ti as u16) {
                    let est = out.estimate_us(run, ti as u16, msg.size);
                    ratios.record(msg.latency.as_us_f64() / est);
                }
                if ratios.is_empty() {
                    continue;
                }
                total += 1;
                let p99 = ratios.p99().unwrap();
                if p99 > 1.0 {
                    o1 += 1;
                }
                if p99 > 2.0 {
                    o2 += 1;
                }
                if p99 > 8.0 {
                    o8 += 1;
                }
            }
        }
        let pct = |x: usize| 100.0 * x as f64 / total.max(1) as f64;
        println!(
            "{}\t{:.1}\t{:.1}\t{:.1}\t{}",
            out.mode.label(),
            pct(o1),
            pct(o2),
            pct(o8),
            total
        );
    }
    println!("\npaper: Silo 0/0/0; TCP 23/22/21; DCTCP 47/17/14; HULL 47/16/14;");
    println!("Okto 91/81/37; Okto+ 20/19/19.");
}

/// Guaranteed-bandwidth schemes finish by the estimate (ratio ≤ 1);
/// fair-sharing schemes spread: some tenants luck into extra bandwidth, a
/// long tail starves.
fn fig14<'a>(outs: impl Iterator<Item = &'a Ns2Outcome>) {
    println!("== Fig 14: class-B mean latency / estimate ==");
    for out in outs {
        let mut per_tenant = silo_base::Summary::new();
        for (run, m) in out.metrics.iter().enumerate() {
            for (ti, t) in out.tenants[run].iter().enumerate() {
                if t.class != NsClass::B {
                    continue;
                }
                let mut sum = 0.0;
                let mut n = 0usize;
                // Same-host messages ride the vswitch, not the network.
                for msg in m
                    .messages
                    .iter()
                    .filter(|x| x.tenant == ti as u16 && !x.same_host)
                {
                    let est = out.estimate_us(run, ti as u16, msg.size);
                    sum += msg.latency.as_us_f64() / est;
                    n += 1;
                }
                if n > 0 {
                    per_tenant.record(sum / n as f64);
                }
            }
        }
        println!(
            "{}: tenants={} median ratio={:.2} p95={:.2}",
            out.mode.label(),
            per_tenant.len(),
            per_tenant.median().unwrap_or(f64::NAN),
            per_tenant.p95().unwrap_or(f64::NAN)
        );
        print_cdf(
            &format!("{} class-B latency/estimate", out.mode.label()),
            &mut per_tenant,
            11,
        );
    }
    println!("\npaper shape: Silo/Okto a step at <= 1 (guarantees met); TCP/HULL spread");
    println!("around 1 with 65% of tenants faster but a long starved tail.");
}
