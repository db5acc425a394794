//! Workload scripts: what each connection sends, in order.
//!
//! A [`Script`] is data: setup units, then one [`ConnScript`] per client
//! connection. A [`Unit`] is a run of calls that must stay on one
//! connection, in order — an advising session whose cursor resume and
//! "drop my first recommendation" what-if depend on earlier answers in the
//! same unit. Those two dependencies are the only way a response shapes a
//! later request; everything else is fixed by the seed.

use coursenav_navigator::WhatIfRequest;

/// A route the workloads call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Route {
    /// `POST /v1/explore`.
    Explore,
    /// `POST /v1/advise`.
    Advise,
    /// `POST /v1/whatif`.
    WhatIf,
    /// `GET /v1/healthz`.
    Healthz,
    /// `GET /v1/catalog`.
    Catalog,
    /// `POST /v1/catalogs/{tenant}/invalidate` — a pass boundary.
    Invalidate,
}

impl Route {
    /// Request line method.
    pub fn method(self) -> &'static str {
        match self {
            Route::Healthz | Route::Catalog => "GET",
            _ => "POST",
        }
    }

    /// Request path; the invalidation path names the tenant.
    pub fn path(self, tenant: Option<&str>) -> String {
        match self {
            Route::Explore => "/v1/explore".into(),
            Route::Advise => "/v1/advise".into(),
            Route::WhatIf => "/v1/whatif".into(),
            Route::Healthz => "/v1/healthz".into(),
            Route::Catalog => "/v1/catalog".into(),
            Route::Invalidate => format!(
                "/v1/catalogs/{}/invalidate",
                tenant.unwrap_or(coursenav_server::registry::DEFAULT_TENANT)
            ),
        }
    }
}

/// A request body, possibly depending on an earlier answer in its unit.
#[derive(Debug, Clone, PartialEq)]
pub enum Body {
    /// No body.
    Empty,
    /// Sent as is.
    Fixed(String),
    /// The paged request at index `of` resumed from its answer's cursor:
    /// `body` with its `"cursor":null` replaced by the token. Skipped when
    /// that answer carried no cursor (the first page held everything).
    Resume {
        /// Index of the page being resumed, within the unit.
        of: usize,
        /// The paged request's body.
        body: String,
    },
    /// "What if I drop my first recommendation": `template` with the
    /// courses of the first recommendation in the advise answer at index
    /// `of` as its delta. Skipped when that recommendation is to wait.
    DropFirstRecommendation {
        /// Index of the advise call, within the unit.
        of: usize,
        /// The what-if with an empty `avoid` delta.
        template: Box<WhatIfRequest>,
    },
}

/// One call of a unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Call {
    /// Where it goes.
    pub route: Route,
    /// What it sends.
    pub body: Body,
}

impl Call {
    /// A call with a body serialized from `value`.
    pub fn json(route: Route, value: &impl serde::Serialize) -> Call {
        Call {
            route,
            body: Body::Fixed(serde_json::to_string(value).expect("requests serialize")),
        }
    }

    /// A body-less call.
    pub fn bare(route: Route) -> Call {
        Call {
            route,
            body: Body::Empty,
        }
    }

    /// Whether the request is paged (it mints or takes a cursor, so the
    /// server bypasses its response cache).
    pub fn paged(&self) -> bool {
        match &self.body {
            Body::Fixed(body) => {
                body.contains("\"page-size\":") && !body.contains("\"page-size\":null")
            }
            Body::Resume { .. } => true,
            _ => false,
        }
    }

    /// The body to send, given the answers so far in this unit (`None` for
    /// calls that were skipped). `None` means skip this call.
    pub fn render(&self, earlier: &[Option<Vec<u8>>]) -> Option<String> {
        let answer = |of: usize| earlier.get(of).and_then(|a| a.as_deref());
        match &self.body {
            Body::Empty => Some(String::new()),
            Body::Fixed(body) => Some(body.clone()),
            Body::Resume { of, body } => {
                let token = next_cursor(answer(*of)?)?;
                Some(body.replacen("\"cursor\":null", &format!("\"cursor\":\"{token}\""), 1))
            }
            Body::DropFirstRecommendation { of, template } => {
                let courses = first_recommendation(answer(*of)?)?;
                let mut req = (**template).clone();
                req.delta.avoid = courses;
                Some(serde_json::to_string(&req).expect("requests serialize"))
            }
        }
    }
}

/// The resume token in an explore (`next_cursor`) or advise
/// (`next-cursor`) answer.
fn next_cursor(answer: &[u8]) -> Option<String> {
    let text = std::str::from_utf8(answer).ok()?;
    ["\"next_cursor\":\"", "\"next-cursor\":\""]
        .iter()
        .find_map(|key| {
            let start = text.find(key)? + key.len();
            let len = text[start..].find('"')?;
            Some(text[start..start + len].to_string())
        })
}

/// The courses of the first recommendation in an advise answer; `None`
/// when there is none or it is the empty ("wait") selection.
fn first_recommendation(answer: &[u8]) -> Option<Vec<String>> {
    let value: serde_json::Value = serde_json::from_slice(answer).ok()?;
    let courses: Vec<String> = value["recommendations"][0]["courses"]
        .as_array()?
        .iter()
        .filter_map(|c| c.as_str().map(str::to_string))
        .collect();
    (!courses.is_empty()).then_some(courses)
}

/// Calls that must run in order on one connection.
#[derive(Debug, Clone, PartialEq)]
pub struct Unit {
    /// The calls, in order.
    pub calls: Vec<Call>,
}

/// Setup work for one tenant: sent once before timing starts.
#[derive(Debug, Clone, PartialEq)]
pub struct SetupUnit {
    /// The tenant addressed (`None` = the default tenant).
    pub tenant: Option<String>,
    /// The calls.
    pub unit: Unit,
}

/// How a connection's loop goes through its units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Looping {
    /// Pass after pass, with nothing between them.
    Cycle,
    /// Pass after pass, each starting by invalidating the tenant, so every
    /// pass does the same cold work instead of hitting the response cache.
    Passes,
    /// One pass; the connection stops when it has sent every unit, so no
    /// unit is ever sent twice.
    Once,
}

/// Everything one client connection sends during the measured window: a
/// sequence of passes over `units`, pass `p` in the order `orders[p]`
/// (the orders repeat when exhausted).
#[derive(Debug, Clone, PartialEq)]
pub struct ConnScript {
    /// The tenant this connection addresses (`x-tenant`).
    pub tenant: Option<String>,
    /// The units a pass sends.
    pub units: Vec<Unit>,
    /// One permutation of `units` indices per pass.
    pub orders: Vec<Vec<usize>>,
    /// How the loop goes through the passes.
    pub looping: Looping,
}

impl ConnScript {
    /// A script sending `units` once, in the given order.
    pub fn once(tenant: Option<String>, units: Vec<Unit>) -> ConnScript {
        let orders = vec![(0..units.len()).collect()];
        ConnScript {
            tenant,
            units,
            orders,
            looping: Looping::Once,
        }
    }

    /// Whether the window ends only at a pass boundary.
    pub fn in_passes(&self) -> bool {
        self.looping == Looping::Passes
    }

    /// Step `i` (0-based) of the connection's loop. In passes, each pass is
    /// preceded by one invalidation step.
    pub fn unit_at(&self, i: usize) -> Step<'_> {
        self.step(i, |pass, within| {
            self.orders[pass % self.orders.len()][within]
        })
    }

    /// Step `i` of the loop with every pass in population order: what
    /// warm-up sends, so that set-up does the same work whatever the seed.
    pub fn warm_up_at(&self, i: usize) -> Step<'_> {
        self.step(i, |_, within| within)
    }

    /// Step `i`, taking the unit at position `within` of pass `pass` from
    /// `index(pass, within)`.
    fn step(&self, i: usize, index: impl Fn(usize, usize) -> usize) -> Step<'_> {
        let passes = self.in_passes();
        let per_pass = self.units.len() + usize::from(passes);
        let (pass, mut within) = (i / per_pass, i % per_pass);
        if self.looping == Looping::Once && pass > 0 {
            return Step::End;
        }
        if passes {
            if within == 0 {
                return Step::Invalidate;
            }
            within -= 1;
        }
        Step::Unit(&self.units[index(pass, within)])
    }
}

/// One step of a connection's loop.
#[derive(Debug, Clone, Copy)]
pub enum Step<'a> {
    /// Invalidate the connection's tenant (start of a pass).
    Invalidate,
    /// Send a unit.
    Unit(&'a Unit),
    /// The script is used up.
    End,
}

/// A whole workload script.
#[derive(Debug, Clone, PartialEq)]
pub struct Script {
    /// Sent once, in order, before the window (warm-up).
    pub setup: Vec<SetupUnit>,
    /// One entry per client connection.
    pub conns: Vec<ConnScript>,
}

impl Script {
    /// A stable rendering of the whole script, for determinism checks.
    pub fn fingerprint(&self) -> String {
        format!("{self:?}")
    }
}

/// The raw bytes of one HTTP/1.1 request.
pub fn raw_request(route: Route, tenant: Option<&str>, body: &str) -> Vec<u8> {
    let mut raw = format!(
        "{} {} HTTP/1.1\r\nhost: coursenav-bench\r\ncontent-length: {}\r\n",
        route.method(),
        route.path(tenant),
        body.len()
    );
    if let Some(tenant) = tenant {
        raw.push_str("x-tenant: ");
        raw.push_str(tenant);
        raw.push_str("\r\n");
    }
    raw.push_str("\r\n");
    raw.push_str(body);
    raw.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resume_substitutes_the_cursor_and_skips_without_one() {
        let call = Call {
            route: Route::Explore,
            body: Body::Resume {
                of: 0,
                body: r#"{"page-size":25,"cursor":null}"#.into(),
            },
        };
        let page =
            br#"{"paths":{"paths":[],"truncated":true,"next_cursor":"cn1.ab.cd","millis":0}}"#;
        assert_eq!(
            call.render(&[Some(page.to_vec())]).as_deref(),
            Some(r#"{"page-size":25,"cursor":"cn1.ab.cd"}"#)
        );
        let last = br#"{"paths":{"paths":[],"truncated":false,"next_cursor":null,"millis":0}}"#;
        assert_eq!(call.render(&[Some(last.to_vec())]), None);
        assert_eq!(call.render(&[None]), None);
        let advise = br#"{"api-version":1,"next-cursor":"cn1.01.02"}"#;
        assert_eq!(next_cursor(advise).as_deref(), Some("cn1.01.02"));
    }

    #[test]
    fn first_recommendation_reads_the_advise_answer() {
        let answer = br#"{"recommendations":[{"courses":["A 1","B 2"],"paths":3},{"courses":[]}]}"#;
        assert_eq!(
            first_recommendation(answer),
            Some(vec!["A 1".to_string(), "B 2".to_string()])
        );
        let wait = br#"{"recommendations":[{"courses":[]}]}"#;
        assert_eq!(first_recommendation(wait), None);
        assert_eq!(first_recommendation(b"{}"), None);
    }

    #[test]
    fn passes_interleave_one_invalidation_per_pass_in_each_passs_order() {
        let unit = |route| Unit {
            calls: vec![Call::bare(route)],
        };
        let conn = ConnScript {
            tenant: Some("t".into()),
            units: vec![unit(Route::Healthz), unit(Route::Catalog)],
            orders: vec![vec![0, 1], vec![1, 0]],
            looping: Looping::Passes,
        };
        let steps: Vec<Option<Route>> = (0..9)
            .map(|i| match conn.unit_at(i) {
                Step::Unit(u) => Some(u.calls[0].route),
                _ => None,
            })
            .collect();
        use Route::{Catalog as C, Healthz as H};
        assert_eq!(
            steps,
            [
                None,
                Some(H),
                Some(C),
                None,
                Some(C),
                Some(H),
                None,
                Some(H),
                Some(C)
            ]
        );
        assert!(matches!(conn.warm_up_at(3), Step::Invalidate));
        assert!(matches!(conn.warm_up_at(4), Step::Unit(u) if u.calls[0].route == H));
        let cycle = ConnScript {
            looping: Looping::Cycle,
            ..conn.clone()
        };
        assert!(matches!(cycle.unit_at(3), Step::Unit(u) if u.calls[0].route == H));
        let once = ConnScript::once(None, vec![unit(Route::Healthz), unit(Route::Catalog)]);
        assert!(matches!(once.unit_at(1), Step::Unit(u) if u.calls[0].route == C));
        assert!(matches!(once.unit_at(2), Step::End));
        assert_eq!(
            Route::Invalidate.path(Some("t")),
            "/v1/catalogs/t/invalidate"
        );
        let raw = raw_request(Route::Healthz, Some("t"), "");
        assert!(raw.starts_with(b"GET /v1/healthz HTTP/1.1\r\n"));
        assert!(raw.ends_with(b"x-tenant: t\r\n\r\n"));
    }
}
