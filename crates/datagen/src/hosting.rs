//! Hosting profiles: where a domain's A record points and what certificate
//! (if any) its server presents. Drives Figure 4's IP concentration and
//! Tables VI/VII's certificate findings.

use idnre_certs::Certificate;
use idnre_crawler::UsageCategory;
use rand::Rng;
use std::net::Ipv4Addr;

/// How a resolving domain is hosted.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum HostingProfile {
    /// Parked at a parking service (shared IPs, shared certificate).
    Parked {
        /// Parking provider domain, e.g. `sedoparking.com`.
        provider: &'static str,
    },
    /// Shared web hosting (provider-wide certificate).
    SharedHosting {
        /// Hosting provider domain, e.g. `cafe24.com`.
        provider: &'static str,
    },
    /// CDN-fronted (Akamai-style segment).
    Cdn,
    /// The registrant's own server.
    SelfHosted,
}

/// Parking providers with their Table VII weights.
const PARKING: [(&str, u32); 3] = [
    ("sedoparking.com", 85),
    ("seoboxes.com", 10),
    ("parkingcrew.net", 5),
];

/// Shared-hosting providers with their Table VII weights.
const SHARED_HOSTS: [(&str, u32); 5] = [
    ("cafe24.com", 40),
    ("ovh.net", 30),
    ("bizgabia.com", 20),
    ("nayana.com", 6),
    ("suksawadplywood.co.th", 4),
];

impl HostingProfile {
    /// Samples a hosting profile consistent with the domain's content
    /// category.
    pub fn sample<R: Rng + ?Sized>(rng: &mut R, content: UsageCategory) -> Option<Self> {
        if content == UsageCategory::NotResolved {
            return None;
        }
        Some(match content {
            UsageCategory::Parked | UsageCategory::ForSale => HostingProfile::Parked {
                provider: pick(rng, &PARKING),
            },
            UsageCategory::Meaningful | UsageCategory::Redirected => match rng.gen_range(0..10) {
                0..=4 => HostingProfile::SharedHosting {
                    provider: pick(rng, &SHARED_HOSTS),
                },
                5 => HostingProfile::Cdn,
                _ => HostingProfile::SelfHosted,
            },
            _ => match rng.gen_range(0..10) {
                0..=6 => HostingProfile::SharedHosting {
                    provider: pick(rng, &SHARED_HOSTS),
                },
                _ => HostingProfile::SelfHosted,
            },
        })
    }

    /// The IP the domain's A record points at. Parking and shared hosting
    /// concentrate in a handful of /24s (Finding 7); self-hosted domains
    /// scatter across a wide space.
    pub fn assign_ip<R: Rng + ?Sized>(&self, rng: &mut R) -> Ipv4Addr {
        match self {
            HostingProfile::Parked { provider } => {
                // A handful of /24s per parking provider (the paper's top
                // ten hosts four parking segments).
                let base = provider_octet(provider);
                Ipv4Addr::new(
                    91,
                    195,
                    base.wrapping_add(rng.gen_range(0..4)),
                    rng.gen_range(1..=254),
                )
            }
            HostingProfile::SharedHosting { provider } => {
                let base = provider_octet(provider);
                Ipv4Addr::new(
                    104,
                    27,
                    base.wrapping_add(rng.gen_range(0..3)),
                    rng.gen_range(1..=254),
                )
            }
            HostingProfile::Cdn => {
                Ipv4Addr::new(23, 56, rng.gen_range(0..8), rng.gen_range(1..=254))
            }
            HostingProfile::SelfHosted => Ipv4Addr::new(
                rng.gen_range(40..=220),
                rng.gen_range(0..=255),
                rng.gen_range(0..=255),
                rng.gen_range(1..=254),
            ),
        }
    }

    /// The certificate the server presents when `https` is deployed, where
    /// `today` is the evaluation day. Reproduces the Table VI failure mix:
    /// parked/shared domains serve the provider's certificate (invalid CN);
    /// self-hosted servers are split between correct, self-signed and
    /// expired installs.
    pub fn issue_certificate<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        domain: &str,
        today: i64,
    ) -> Certificate {
        match self {
            HostingProfile::Parked { provider } => {
                Certificate::ca_issued(provider, vec![], "DigiCert CA", today - 200, today + 165)
            }
            HostingProfile::SharedHosting { provider } => Certificate::ca_issued(
                &format!("*.{provider}"),
                vec![provider.to_string()],
                "Sectigo RSA DV",
                today - 100,
                today + 265,
            ),
            HostingProfile::Cdn => Certificate::ca_issued(
                "a248.e.akamai.net",
                vec![],
                "DigiCert CA",
                today - 50,
                today + 315,
            ),
            HostingProfile::SelfHosted => match rng.gen_range(0..100) {
                // Correct install.
                0..=24 => Certificate::ca_issued(
                    domain,
                    vec![format!("www.{domain}")],
                    "Let's Encrypt R3",
                    today - 30,
                    today + 60,
                ),
                // Self-signed.
                25..=64 => Certificate::self_signed(domain, today - 365, today + 3650),
                // Expired (was correct once).
                _ => Certificate::ca_issued(
                    domain,
                    vec![],
                    "Let's Encrypt R3",
                    today - 500,
                    today - rng.gen_range(10..300),
                ),
            },
        }
    }
}

fn pick<R: Rng + ?Sized>(rng: &mut R, table: &[(&'static str, u32)]) -> &'static str {
    let total: u32 = table.iter().map(|&(_, w)| w).sum();
    let mut roll = rng.gen_range(0..total);
    for &(name, w) in table {
        if roll < w {
            return name;
        }
        roll -= w;
    }
    table[table.len() - 1].0
}

fn provider_octet(provider: &str) -> u8 {
    provider
        .bytes()
        .fold(7u8, |acc, b| acc.wrapping_mul(31).wrapping_add(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use idnre_certs::{CertProblem, Validator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn unresolved_domains_have_no_hosting() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(
            HostingProfile::sample(&mut rng, UsageCategory::NotResolved),
            None
        );
    }

    #[test]
    fn parked_content_parks() {
        let mut rng = StdRng::seed_from_u64(2);
        match HostingProfile::sample(&mut rng, UsageCategory::Parked).unwrap() {
            HostingProfile::Parked { .. } => {}
            other => panic!("expected parked, got {other:?}"),
        }
    }

    #[test]
    fn parking_ips_concentrate() {
        let mut rng = StdRng::seed_from_u64(3);
        let profile = HostingProfile::Parked {
            provider: "sedoparking.com",
        };
        let segments: std::collections::HashSet<[u8; 3]> = (0..200)
            .map(|_| {
                let ip = profile.assign_ip(&mut rng).octets();
                [ip[0], ip[1], ip[2]]
            })
            .collect();
        assert!(
            (1..=4).contains(&segments.len()),
            "parking spans a handful of /24s, got {}",
            segments.len()
        );
    }

    #[test]
    fn self_hosted_ips_scatter() {
        let mut rng = StdRng::seed_from_u64(4);
        let segments: std::collections::HashSet<[u8; 3]> = (0..200)
            .map(|_| {
                let ip = HostingProfile::SelfHosted.assign_ip(&mut rng).octets();
                [ip[0], ip[1], ip[2]]
            })
            .collect();
        assert!(segments.len() > 150, "self-hosted spans many /24s");
    }

    #[test]
    fn parked_certificates_mismatch_cn() {
        let mut rng = StdRng::seed_from_u64(5);
        let profile = HostingProfile::Parked {
            provider: "sedoparking.com",
        };
        let cert = profile.issue_certificate(&mut rng, "xn--0wwy37b.com", 17_400);
        let validator = Validator::with_default_roots(17_400);
        assert_eq!(
            validator.classify(&cert, "xn--0wwy37b.com"),
            Some(CertProblem::InvalidCommonName)
        );
    }

    #[test]
    fn self_hosted_cert_mix_covers_all_buckets() {
        let mut rng = StdRng::seed_from_u64(6);
        let validator = Validator::with_default_roots(17_400);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            let cert = HostingProfile::SelfHosted.issue_certificate(&mut rng, "shop.com", 17_400);
            seen.insert(validator.classify(&cert, "shop.com"));
        }
        assert!(seen.contains(&None));
        assert!(seen.contains(&Some(CertProblem::InvalidAuthority)));
        assert!(seen.contains(&Some(CertProblem::Expired)));
    }
}
