//! Resumable, page-at-a-time request servicing.
//!
//! The paper's interaction model is a front end that pulls a *page* of
//! paths, lets the student inspect them, and comes back for more. This
//! module is the service-level entry point for that loop, and the one
//! dispatch behind every exploration:
//! [`NavigatorService::run_page_memo`] serves one page of an exploration,
//! optionally pushing each path through a sink as it is found (the NDJSON
//! streaming endpoint), and hands back an [`ExplorationCursor`] when more
//! remains.
//!
//! Paging is *exact*: concatenating the pages of a request yields
//! byte-identical output to running the same request unpaged — count
//! totals match, collected paths are the same slice of the same DFS
//! order, and ranked pages are consecutive slices of the same best-first
//! order — by construction, since an unpaged run
//! ([`NavigatorService::run_until_memo`]) is served here as one page with
//! no cursor and no page size. Count and collect output step the
//! depth-first walker ([`crate::PathStream`]) and resume from its
//! serialized frontier ([`crate::StreamCursor`]) in O(depth) work; an
//! unpaged count may instead fan out across worker threads. Ranked output
//! resumes by replaying the deterministic best-first search while skipping
//! the already-delivered goal pops (cheap: skipped goals are popped but
//! never reconstructed into paths), or by slicing the memoized top-k.

use std::ops::ControlFlow;
use std::time::Instant;

use crate::cursor::ExplorationCursor;
use crate::expiry::Expiry;
use crate::memo::{ranking_signature, TranspositionTable};
use crate::path::{LeafKind, Path};
use crate::ranked::RankedPath;
use crate::request::{ExplorationRequest, OutputMode};
use crate::service::{ExplorationResponse, NavigatorService, ServiceError, API_VERSION};
use crate::stats::PathCounts;
use crate::stream::Step;

/// One item delivered through a streaming page sink, in output order.
#[derive(Debug, Clone, Copy)]
pub enum StreamedItem<'a> {
    /// A collected path (count pages stream no per-path items).
    Path(&'a Path),
    /// A ranked path with its cost, lowest cost first.
    Ranked(&'a RankedPath),
}

/// A per-item callback for streaming delivery. Returning
/// [`ControlFlow::Break`] abandons the page (e.g. the client hung up).
pub type PageSink<'s> = dyn FnMut(StreamedItem<'_>) -> ControlFlow<()> + 's;

/// The result of serving one page.
#[derive(Debug, Clone)]
pub struct PageOutcome {
    /// The page's response, `api_version` stamped and `truncated` set
    /// whenever a cursor follows. `next_cursor` is left `None`: minting
    /// opaque tokens is the serving layer's job.
    pub response: ExplorationResponse,
    /// Where to resume, when the exploration has more to deliver.
    pub cursor: Option<ExplorationCursor>,
}

/// How one call into [`NavigatorService::dispatch`] is bounded and served.
#[derive(Clone, Copy)]
pub(crate) struct PageSpec<'t> {
    /// Where to resume; `None` starts at the root.
    pub(crate) cursor: Option<&'t ExplorationCursor>,
    /// Paths (collect, top-k) or leaves (count) per page; `None` runs
    /// unpaged.
    pub(crate) size: Option<usize>,
    pub(crate) deadline: Option<Instant>,
    pub(crate) table: Option<&'t TranspositionTable>,
    /// Worker threads for an unpaged count, the one mode that fans out.
    pub(crate) parallelism: usize,
}

impl NavigatorService<'_> {
    /// Serves one page of `req`: the one paged dispatch. A page holds up
    /// to `page_size` paths (collect/top-k) or leaves (count), resuming
    /// from `cursor` when one is given. The returned
    /// [`PageOutcome::cursor`] is `Some` exactly when the exploration
    /// stopped early with more to deliver — page filled or `deadline`
    /// expired — and resuming with it continues as if the run had never
    /// paused.
    ///
    /// With a `sink`, each path is pushed through it the moment it is
    /// found (collect) or in best-first order once ranked (top-k). The
    /// paths also appear in the returned response, so a caller that only
    /// wants the summary can clear them before serializing.
    ///
    /// With a `table`, counting pages answer memoized subtrees in bulk (a
    /// page may then overshoot its nominal size — a bulk hit delivers a
    /// whole subtree's leaves at once — but the accumulated totals, final
    /// statistics, and cursors stay exact), and ranked pages under a
    /// memoizable ranking ([`crate::RankingSpec::memoizable`]) are sliced
    /// out of the memoized top-k. `None` walks every subtree and searches
    /// un-memoized; collect output never uses the table.
    ///
    /// `cursor` must come from a previous page of an equivalent request
    /// (same [`ExplorationRequest::cache_key`]); anything else is
    /// [`ServiceError::InvalidCursor`]. Tampered frontier state is
    /// detected by replaying it against the catalog — never trusted,
    /// never a panic.
    pub fn run_page_memo(
        &self,
        req: &ExplorationRequest,
        cursor: Option<&ExplorationCursor>,
        deadline: Option<Instant>,
        sink: Option<&mut PageSink<'_>>,
        table: Option<&TranspositionTable>,
    ) -> Result<PageOutcome, ServiceError> {
        let page = PageSpec {
            cursor,
            size: req.page_size,
            deadline,
            table,
            parallelism: 1,
        };
        self.dispatch(req, page, sink)
    }

    /// Every exploration's one dispatch: paged and unpaged runs, count,
    /// collect and top-k. Count and collect step the depth-first walker
    /// (an unpaged run is a page with no cursor and no size), except that
    /// an unpaged count at `parallelism > 1` fans out.
    pub(crate) fn dispatch(
        &self,
        req: &ExplorationRequest,
        page: PageSpec<'_>,
        sink: Option<&mut PageSink<'_>>,
    ) -> Result<PageOutcome, ServiceError> {
        // The request's fingerprint is computed at most once: to check the
        // cursor it resumes from, and to stamp the one it hands back (the
        // pages leave that one's blank).
        let key = page.cursor.map(|_| req.cache_key());
        if page
            .cursor
            .zip(key.as_ref())
            .is_some_and(|(cur, key)| cur.fingerprint != *key)
        {
            return Err(ServiceError::InvalidCursor(
                "cursor belongs to a different request".into(),
            ));
        }
        let mut outcome = match req.output {
            // Count pages stream no per-path items, so the sink is moot.
            OutputMode::Count => self.count_page(req, page),
            OutputMode::Collect { limit } => self.collect_page(req, page, sink, limit),
            OutputMode::TopK { k } => self.ranked_page(req, page, sink, k),
        }?;
        if let Some(next) = &mut outcome.cursor {
            next.fingerprint = key.unwrap_or_else(|| req.cache_key());
        }
        Ok(outcome)
    }

    fn count_page(
        &self,
        req: &ExplorationRequest,
        page: PageSpec<'_>,
    ) -> Result<PageOutcome, ServiceError> {
        let explorer = self.build_explorer(req)?;
        let t0 = Instant::now();
        let counts = |counts: PathCounts, truncated: bool| ExplorationResponse::Counts {
            api_version: API_VERSION,
            total_paths: counts.total_paths,
            goal_paths: counts.goal_paths,
            stats: counts.stats,
            truncated,
            next_cursor: None,
            millis: t0.elapsed().as_millis(),
        };
        if page.parallelism > 1 {
            let (all, truncated) =
                explorer.count_paths_parallel_until(page.parallelism, page.deadline, page.table);
            return Ok(PageOutcome {
                response: counts(all, truncated),
                cursor: None,
            });
        }
        let stream = match page.cursor {
            Some(cur) => {
                let frontier = cur.frontier.as_ref().ok_or_else(|| {
                    ServiceError::InvalidCursor("count cursor is missing its frontier".into())
                })?;
                explorer.resume_paths_iter(frontier)?
            }
            None => explorer.paths_iter(),
        };
        let mut stream = stream.with_table(page.table);
        let cap = page.size.map_or(u128::MAX, |size| size.max(1) as u128);
        // Both checks run before every step, so no leaf is counted twice or
        // lost across the page boundary. Bulk hits leave the frontier
        // exactly as if the subtree's last child had just finished, so the
        // cursor stays valid.
        let truncated = stream.tally(cap, &mut Expiry::per_step(page.deadline));
        let mut all = stream.counts();
        let this_page = all.total_paths;
        let (emitted, total, goal) = page.cursor.map_or((0, 0, 0), |cur| {
            (cur.emitted, cur.total_paths, cur.goal_paths)
        });
        all.total_paths += total;
        all.goal_paths += goal;
        let next = truncated.then(|| ExplorationCursor {
            fingerprint: String::new(),
            emitted: emitted.saturating_add(this_page.min(u64::MAX.into()) as u64),
            total_paths: all.total_paths,
            goal_paths: all.goal_paths,
            frontier: Some(stream.cursor()),
        });
        Ok(PageOutcome {
            response: counts(all, truncated),
            cursor: next,
        })
    }

    fn collect_page(
        &self,
        req: &ExplorationRequest,
        page: PageSpec<'_>,
        mut sink: Option<&mut PageSink<'_>>,
        limit: usize,
    ) -> Result<PageOutcome, ServiceError> {
        let explorer = self.build_explorer(req)?;
        let t0 = Instant::now();
        let (mut stream, emitted_before) = match page.cursor {
            Some(cur) => {
                let frontier = cur.frontier.as_ref().ok_or_else(|| {
                    ServiceError::InvalidCursor("collect cursor is missing its frontier".into())
                })?;
                if cur.emitted > limit as u64 {
                    return Err(ServiceError::InvalidCursor(
                        "cursor claims more paths than the collection limit".into(),
                    ));
                }
                (explorer.resume_paths_iter(frontier)?, cur.emitted as usize)
            }
            None => (explorer.paths_iter(), 0),
        };
        let goal_driven = explorer.goal().is_some();
        let page_cap = page
            .size
            .map_or(usize::MAX, |size| size.max(1))
            .min(limit - emitted_before);
        let mut expiry = Expiry::per_step(page.deadline);
        let mut paths: Vec<Path> = Vec::new();
        let mut truncated = false;
        let mut resume_here = false;
        loop {
            let page_full = paths.len() >= page_cap;
            if page_full && emitted_before + paths.len() < limit {
                // Page boundary below the overall limit: the next page
                // starts exactly here.
                truncated = true;
                resume_here = true;
                break;
            }
            // At the overall limit the run keeps scanning until the next
            // collectible path to decide `truncated`.
            if expiry.tick() {
                truncated = true;
                resume_here = !page_full;
                break;
            }
            let kind = match stream.step() {
                Step::Leaf(kind) => kind,
                Step::Bulk => continue,
                Step::Done => break,
            };
            if goal_driven && kind != LeafKind::Goal {
                continue;
            }
            if page_full {
                // One more collectible path exists beyond the limit.
                truncated = true;
                break;
            }
            let path = stream.leaf_path();
            let hung_up = sink
                .as_deref_mut()
                .is_some_and(|sink| sink(StreamedItem::Path(&path)).is_break());
            paths.push(path);
            if hung_up {
                truncated = true;
                break;
            }
        }
        let next = resume_here.then(|| ExplorationCursor {
            fingerprint: String::new(),
            emitted: (emitted_before + paths.len()) as u64,
            total_paths: 0,
            goal_paths: 0,
            frontier: Some(stream.cursor()),
        });
        Ok(PageOutcome {
            response: ExplorationResponse::Paths {
                api_version: API_VERSION,
                paths,
                truncated,
                next_cursor: None,
                millis: t0.elapsed().as_millis(),
            },
            cursor: next,
        })
    }

    fn ranked_page(
        &self,
        req: &ExplorationRequest,
        page: PageSpec<'_>,
        sink: Option<&mut PageSink<'_>>,
        k: usize,
    ) -> Result<PageOutcome, ServiceError> {
        let spec = req
            .ranking
            .as_ref()
            .ok_or_else(|| ServiceError::BadRanking("top-k requires a ranking".into()))?;
        let ranking = self.resolve_ranking(spec)?;
        let explorer = self.build_explorer(req)?;
        let t0 = Instant::now();
        let emitted_before = match page.cursor {
            Some(cur) => {
                if cur.emitted > k as u64 {
                    return Err(ServiceError::InvalidCursor(
                        "cursor claims more paths than k".into(),
                    ));
                }
                cur.emitted as usize
            }
            None => 0,
        };
        let remaining = k - emitted_before;
        let page_cap = page
            .size
            .map_or(remaining, |size| size.max(1))
            .min(remaining);
        let memoized = match page.table.filter(|_| spec.memoizable(self.catalog())) {
            Some(table) => explorer.top_k_memo_until(
                ranking.as_ref(),
                ranking_signature(spec),
                k,
                table,
                page.deadline,
            )?,
            None => None,
        };
        let (paths, more) = match memoized {
            Some((all, _work)) => {
                let lo = all.len().min(emitted_before);
                let hi = all.len().min(emitted_before + page_cap);
                (all[lo..hi].to_vec(), hi < all.len())
            }
            // No table, a ranking the memo cannot serve, or the deadline expired
            // mid-DP: the search returns the true best-so-far prefix. One
            // goal pop past the page (within `k`) tells whether more paths
            // follow, so no trailing empty page is ever promised.
            None => {
                let wanted = page_cap.saturating_add(1).min(remaining);
                let (mut paths, _stats, deadline_truncated) = explorer.ranked_search(
                    ranking.as_ref(),
                    None,
                    emitted_before,
                    wanted,
                    page.deadline,
                )?;
                let more = deadline_truncated || paths.len() > page_cap;
                paths.truncate(page_cap);
                (paths, more)
            }
        };
        if let Some(sink) = sink {
            for ranked in &paths {
                if sink(StreamedItem::Ranked(ranked)).is_break() {
                    break;
                }
            }
        }
        let next = more.then(|| ExplorationCursor {
            fingerprint: String::new(),
            emitted: (emitted_before + paths.len()) as u64,
            total_paths: 0,
            goal_paths: 0,
            frontier: None,
        });
        Ok(PageOutcome {
            response: ExplorationResponse::Ranked {
                api_version: API_VERSION,
                ranking: ranking.name().to_string(),
                paths,
                truncated: more,
                next_cursor: None,
                millis: t0.elapsed().as_millis(),
            },
            cursor: next,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{GoalSpec, RankingSpec};
    use coursenav_catalog::{SyntheticCatalog, SyntheticConfig};

    fn paged_to_completion(
        service: &NavigatorService<'_>,
        req: &ExplorationRequest,
    ) -> (Vec<ExplorationResponse>, usize) {
        let mut pages = Vec::new();
        let mut cursor: Option<ExplorationCursor> = None;
        let mut hops = 0usize;
        loop {
            let outcome = service
                .run_page_memo(req, cursor.as_ref(), None, None, None)
                .expect("page serves");
            pages.push(outcome.response);
            hops += 1;
            assert!(hops < 10_000, "paging must terminate");
            match outcome.cursor {
                // Round-trip every cursor through JSON, as the serving
                // layer's session store does.
                Some(next) => {
                    let json = next.to_json();
                    cursor = Some(ExplorationCursor::from_json(&json).expect("cursor parses"));
                }
                None => return (pages, hops),
            }
        }
    }

    fn collect_paths(pages: &[ExplorationResponse]) -> Vec<Path> {
        pages
            .iter()
            .flat_map(|p| match p {
                ExplorationResponse::Paths { paths, .. } => paths.clone(),
                other => panic!("expected Paths, got {other:?}"),
            })
            .collect()
    }

    #[test]
    fn collect_pages_concatenate_to_the_unpaged_answer() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let service = NavigatorService::new(&synth.catalog).with_degree(&synth.degree);
        let mut req = ExplorationRequest::degree_paths(
            synth.start,
            synth.start + 4,
            3,
            OutputMode::Collect { limit: 40 },
        );
        let unpaged = match service.run(&req).unwrap() {
            ExplorationResponse::Paths {
                paths, truncated, ..
            } => (paths, truncated),
            other => panic!("expected Paths, got {other:?}"),
        };
        for page_size in [1usize, 7, 64] {
            req.page_size = Some(page_size);
            let (pages, _) = paged_to_completion(&service, &req);
            let paged = collect_paths(&pages);
            assert_eq!(paged, unpaged.0, "page_size={page_size}");
            // Final page agrees with the unpaged truncation flag; every
            // earlier page is marked truncated (a cursor followed).
            assert_eq!(pages.last().unwrap().truncated(), unpaged.1);
            for page in &pages[..pages.len() - 1] {
                assert!(page.truncated());
            }
        }
    }

    #[test]
    fn count_pages_accumulate_to_the_unpaged_counts() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let service = NavigatorService::new(&synth.catalog).with_degree(&synth.degree);
        let mut req =
            ExplorationRequest::degree_paths(synth.start, synth.start + 4, 3, OutputMode::Count);
        let (full_total, full_goal, full_stats) = match service.run(&req).unwrap() {
            ExplorationResponse::Counts {
                total_paths,
                goal_paths,
                stats,
                ..
            } => (total_paths, goal_paths, stats),
            other => panic!("expected Counts, got {other:?}"),
        };
        req.page_size = Some(17);
        let (pages, hops) = paged_to_completion(&service, &req);
        assert!(hops > 1, "page size must actually split the count");
        match pages.last().unwrap() {
            ExplorationResponse::Counts {
                total_paths,
                goal_paths,
                stats,
                truncated,
                ..
            } => {
                assert_eq!(*total_paths, full_total);
                assert_eq!(*goal_paths, full_goal);
                assert_eq!(*stats, full_stats);
                assert!(!truncated);
            }
            other => panic!("expected Counts, got {other:?}"),
        }
    }

    #[test]
    fn ranked_pages_concatenate_to_the_unpaged_answer() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let service = NavigatorService::new(&synth.catalog).with_degree(&synth.degree);
        let mut req = ExplorationRequest::degree_paths(
            synth.start,
            synth.start + 4,
            3,
            OutputMode::TopK { k: 15 },
        );
        req.ranking = Some(RankingSpec::Time);
        let unpaged = match service.run(&req).unwrap() {
            ExplorationResponse::Ranked { paths, .. } => paths,
            other => panic!("expected Ranked, got {other:?}"),
        };
        assert!(unpaged.len() > 3);
        req.page_size = Some(4);
        let (pages, _) = paged_to_completion(&service, &req);
        let paged: Vec<RankedPath> = pages
            .iter()
            .flat_map(|p| match p {
                ExplorationResponse::Ranked { paths, .. } => paths.clone(),
                other => panic!("expected Ranked, got {other:?}"),
            })
            .collect();
        assert_eq!(paged, unpaged);
    }

    #[test]
    fn foreign_and_inconsistent_cursors_are_rejected() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let service = NavigatorService::new(&synth.catalog).with_degree(&synth.degree);
        let mut req = ExplorationRequest::degree_paths(
            synth.start,
            synth.start + 4,
            3,
            OutputMode::Collect { limit: 40 },
        );
        req.page_size = Some(3);
        let outcome = service.run_page_memo(&req, None, None, None, None).unwrap();
        let cursor = outcome.cursor.expect("more pages remain");

        let mut other = req.clone();
        other.max_per_semester = 2;
        assert!(matches!(
            service.run_page_memo(&other, Some(&cursor), None, None, None),
            Err(ServiceError::InvalidCursor(_))
        ));

        let mut no_frontier = cursor.clone();
        no_frontier.frontier = None;
        assert!(matches!(
            service.run_page_memo(&req, Some(&no_frontier), None, None, None),
            Err(ServiceError::InvalidCursor(_))
        ));

        let mut over_limit = cursor.clone();
        over_limit.emitted = 10_000;
        assert!(matches!(
            service.run_page_memo(&req, Some(&over_limit), None, None, None),
            Err(ServiceError::InvalidCursor(_))
        ));
    }

    #[test]
    fn streaming_sink_sees_every_page_path_in_order() {
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let service = NavigatorService::new(&synth.catalog).with_degree(&synth.degree);
        let mut req = ExplorationRequest::degree_paths(
            synth.start,
            synth.start + 4,
            3,
            OutputMode::Collect { limit: 10 },
        );
        req.goal = Some(GoalSpec::Degree);
        let mut streamed: Vec<Path> = Vec::new();
        let mut sink = |item: StreamedItem<'_>| {
            match item {
                StreamedItem::Path(p) => streamed.push(p.clone()),
                StreamedItem::Ranked(r) => streamed.push(r.path.clone()),
            }
            ControlFlow::Continue(())
        };
        let outcome = service
            .run_page_memo(&req, None, None, Some(&mut sink), None)
            .unwrap();
        match outcome.response {
            ExplorationResponse::Paths { paths, .. } => assert_eq!(streamed, paths),
            other => panic!("expected Paths, got {other:?}"),
        }
    }
}
