//! Hose epochs: the pacers' pairwise rate coordination (paper §4.3).

use super::{Ev, Sim};
use crate::config::TransportMode;
use crate::tcp::TcpConn;
use silo_base::FxHashMap;

impl Sim {
    /// EyeQ-style hose coordination (paper §4.3): each sender splits its
    /// own `B` over the destinations it is *currently* sending to; a
    /// receiver additionally throttles its senders to `B/in-degree` only
    /// when its measured arrival rate actually exceeds its hose — bursts
    /// to an idle receiver are deliberately not destination-limited
    /// (§4.1). Idle pairs are reset to the full sender rate so a fresh
    /// burst rides the burst allowance, exactly as the guarantee promises.
    pub(super) fn on_hose_epoch(&mut self) {
        match self.cfg.mode {
            TransportMode::Okto | TransportMode::OktoPlus => self.okto_epoch(),
            _ => self.silo_epoch(),
        }
        let epoch = self.cfg.hose_epoch;
        self.push(self.now + epoch, Ev::HoseEpoch);
    }

    /// Oktopus-style *static* hose division: every VM pair that has ever
    /// communicated keeps `min(B/out-degree, B/in-degree)` regardless of
    /// current activity — Oktopus's central rate computation has no
    /// work-conserving feedback loop (paper §6.2: "VMs cannot burst").
    fn okto_epoch(&mut self) {
        let mut out_deg: FxHashMap<u32, u32> = FxHashMap::default();
        let mut in_deg: FxHashMap<u32, u32> = FxHashMap::default();
        for c in &self.conns {
            if c.src_host != c.dst_host {
                *out_deg.entry(c.src_vm).or_default() += 1;
                *in_deg.entry(c.dst_vm).or_default() += 1;
            }
        }
        let now = self.now;
        for (vi, v) in self.vms.iter_mut().enumerate() {
            let b = self.tenants[v.tenant as usize].b.as_bps() as f64;
            let od = out_deg.get(&(vi as u32)).copied().unwrap_or(1).max(1);
            for (&d, tb) in v.per_dst.iter_mut() {
                let id = in_deg.get(&d).copied().unwrap_or(1).max(1);
                let r = (b / od as f64).min(b / id as f64);
                tb.set_rate(now, silo_base::Rate::from_bps(r.max(1e6) as u64));
            }
            v.rx_epoch_bytes = 0;
        }
    }

    fn silo_epoch(&mut self) {
        for ti in 0..self.tenants.len() {
            self.update_tenant_hose(ti as u16);
        }
    }

    /// Recompute one tenant's pairwise hose rates. Sustained rates split
    /// both endpoint hoses over *currently active* peers (zero-lag
    /// idealization of the pacers' coordination messages). Bursts are
    /// untouched — they ride the per-destination bucket's capacity `S`
    /// whatever its refill rate (§4.1: bursts are not destination
    /// limited) — and idle pairs are reset to the full hose `B` so the
    /// burst allowance refills at the guaranteed rate.
    ///
    /// Called on every active↔idle transition of the tenant's
    /// connections, plus a periodic safety epoch.
    pub(super) fn update_tenant_hose(&mut self, ti: u16) {
        if matches!(self.cfg.mode, TransportMode::Okto | TransportMode::OktoPlus) {
            return; // Oktopus rates are static, set by okto_epoch.
        }
        let Sim {
            conns,
            conn_index,
            vms,
            tenants,
            tenant_vms,
            tenant_conns,
            hose_deg,
            now,
            ..
        } = self;
        let members = &tenant_vms[ti as usize];
        let Some(&base) = members.first() else {
            return;
        };
        // A pair takes a share of both endpoint hoses while it has data
        // outstanding and crosses the NIC.
        let shares = |c: &TcpConn| c.active() && c.src_host != c.dst_host;
        hose_deg.clear();
        hose_deg.resize(members.len(), (0, 0));
        for &ci in &tenant_conns[ti as usize] {
            let c = &conns[ci as usize];
            if shares(c) {
                hose_deg[(c.src_vm - base) as usize].0 += 1;
                hose_deg[(c.dst_vm - base) as usize].1 += 1;
            }
        }
        let now = *now;
        let b = tenants[ti as usize].b;
        let b_bps = b.as_bps() as f64;
        for &vi in members {
            let out_deg = hose_deg[(vi - base) as usize].0;
            for (&d, tb) in vms[vi as usize].per_dst.iter_mut() {
                let sharing = conn_index
                    .get(&(vi, d))
                    .is_some_and(|&ci| shares(&conns[ci as usize]));
                if sharing {
                    let in_deg = hose_deg[(d - base) as usize].1;
                    // 3% headroom: pair rates summing to exactly B would
                    // keep the VM's {B, S} bucket permanently saturated and
                    // its backlog random-walking upward (EyeQ similarly
                    // converges slightly below the hose).
                    let r = 0.97 * (b_bps / out_deg as f64).min(b_bps / in_deg as f64);
                    tb.set_rate(now, silo_base::Rate::from_bps(r.max(1e6) as u64));
                } else {
                    tb.set_rate(now, b);
                }
            }
        }
    }
}
